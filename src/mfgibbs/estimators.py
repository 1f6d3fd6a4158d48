"""Estimators confronting the theorem constants with dynamics and oracles.

Spectral gaps are estimated from sampled trajectories (autocorrelation
decay, across-replica variance decay), entropy decay from the exact
Gaussian flow, and the conditional Poincare assumption from grid gaps at
frozen configurations of the others that the caller passes as one stack;
that oracle runs no chain.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SimConfig, Trajectory, run_chain
from .energies import ParticleSystem
from .spectral1d import conditional_potential, gaussian_exact, gaussian_kl, grid_poincare
from .spectral1d import ou_exact_flow_stacks

__all__ = [
    "GapEstimate",
    "EntropyDecayCurve",
    "ConditionalGapResult",
    "estimate_gap_autocorr",
    "estimate_gap_variance_decay",
    "entropy_decay_gaussian",
    "conditional_gap_mc",
]

#: The variance-decay fit window ends where the excess variance first falls to
#: this fraction of its start: a clean exponential spans just under ln(1/cutoff)
#: e-folds. A fit spanning under ln(1/(2 cutoff)), a factor 2 short, is low_confidence.
_WINDOW_CUTOFF = 0.05

#: Nodes of the windowed grid on which `conditional_gap_mc` takes each gap.
_CONDITIONAL_GRID_N = 1201
#: The window of a conditional gap: the level set where the potential lies
#: within `_WINDOW_LEVEL` of its minimum on an 801-node scan of [-25, 25],
#: each end interpolated linearly between the scan nodes around it (so the
#: window moves with a translated law, not in steps of the scan spacing),
#: widened by 8 scan spacings (0.5) on each side. A level set that reaches an
#: end of the scan is scanned again on twice the interval, up to
#: `_SCAN_DOUBLINGS` times, so that a law wider than the first scan (a
#: Gaussian of sd 4 reaches it) keeps a window whose end density is negligible.
_WINDOW_LEVEL, _SCAN_DOUBLINGS = 45.0, 6


@dataclass(frozen=True)
class GapEstimate:
    rate: float
    stderr: float
    method: str  # "autocorr-fit" or "variance-decay"
    effective_samples: float
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        # an overflowed rate or stderr (e.g. from a step near zero) is no
        # estimate; a NaN one carries the flag of the step that failed
        if math.isinf(self.rate) or math.isinf(self.stderr):
            self.flags["non_finite"] = True

    def to_dict(self) -> dict:
        return {
            "quantity": "spectral-gap",
            "rate": self.rate,
            "stderr": self.stderr,
            "method": self.method,
            "effective_samples": self.effective_samples,
            "flags": dict(self.flags),
        }


def _autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    # the products are summed by np.add.reduce, not by BLAS, whose threads
    # split a long sum in a way that depends on their number
    x = series - series.mean()
    n = len(x)
    acf = np.empty(max_lag + 1)
    var = float(np.add.reduce(x * x)) / n
    # the mean of equal values can be off by round-off, so x need not vanish
    if var == 0 or np.ptp(series) == 0:
        raise ValueError("constant observable")
    for lag in range(max_lag + 1):
        acf[lag] = float(np.add.reduce(x[: n - lag] * x[lag:])) / n / var
    return acf


def _fit_rate(acf: np.ndarray, dt: float) -> float:
    # initial positive monotone window, then weighted LS of log acf vs lag
    end = 1
    while end < len(acf) and acf[end] > 0 and acf[end] < acf[end - 1]:
        end += 1
    if end < 2:
        return math.nan
    lags = np.arange(end, dtype=float)
    logs = np.log(acf[:end])
    w = acf[:end]  # downweight noisy far lags
    slope = float(np.polyfit(lags, logs, 1, w=w)[0])
    return -slope / dt


def estimate_gap_autocorr(
    trajectory: Trajectory, observable: str, max_lag: int
) -> GapEstimate:
    """Fit the slowest exponential decay rate of the autocorrelation.

    The physical-time rate estimates the spectral gap of the sampled
    measure; stderr comes from batch means over chain segments.
    """
    data = trajectory.observables[observable]
    dt = trajectory.step * trajectory.thin
    flags = {}
    acfs = [_autocorrelation(row, max_lag) for row in data]
    acf = np.mean(acfs, axis=0)
    n_total = data.size
    if acf[1] < 2.0 / math.sqrt(n_total):
        # indistinguishable from i.i.d. sampling: decorrelation faster than
        # the recording interval, report the resolution floor
        flags["iid"] = True
        return GapEstimate(1.0 / dt, 0.0, "autocorr-fit", float(n_total), flags)
    rate = _fit_rate(acf, dt)
    if not math.isfinite(rate) or rate <= 0:
        flags["non_decaying"] = True
        return GapEstimate(math.nan, math.nan, "autocorr-fit", float(n_total), flags)
    # batch-means stderr
    batch_rates = []
    if data.shape[0] >= 4:
        batches = data
    else:  # 8 batches of the flattened series
        size = data.size // 8
        batches = data.reshape(-1)[: 8 * size].reshape(8, size)
    for b in batches:
        if len(b) > 3 * max_lag:
            try:
                r = _fit_rate(_autocorrelation(b, max_lag), dt)
            except ValueError:
                # a constant batch: the chain stalled, and batch means that
                # leave it out would understate the error
                batch_rates = []
                break
            if math.isfinite(r) and r > 0:
                batch_rates.append(r)
    if len(batch_rates) >= 2:
        with np.errstate(over="ignore"):  # huge rates overflow to an inf stderr
            stderr = float(np.std(batch_rates, ddof=1) / math.sqrt(len(batch_rates)))
    else:
        stderr = math.nan
        flags["stderr_unavailable"] = True
    ess = n_total * rate * dt / 2.0  # crude: samples per decorrelation time
    return GapEstimate(rate, stderr, "autocorr-fit", ess, flags)


def estimate_gap_variance_decay(
    system: ParticleSystem,
    config: SimConfig,
    observable,
    horizon: float,
) -> GapEstimate:
    """Across-replica variance decay from an over-dispersed start.

    Var(P_t f) decays at rate 2*gap, so the fitted rate is halved.
    `observable` maps a configuration to a scalar. Needs 2 replicas; below 4
    the replica-half stderr is NaN and flagged `stderr_unavailable`.
    """
    if config.replicas < 2:
        raise ValueError("variance decay needs at least 2 replicas")
    n_steps = max(2, int(round(horizon / config.step)))
    cfg = dataclasses.replace(config, n_steps=n_steps, burn_in=0)
    traj = run_chain(system, cfg, observables={"obs": observable})
    data = traj.observables["obs"]  # (replicas, n_records)
    var = data.var(axis=0, ddof=1)
    if np.max(var) == 0:
        return GapEstimate(
            math.nan, math.nan, "variance-decay", 0.0, {"constant_observable": True}
        )
    times = traj.times
    n_tail = max(1, len(var) // 10)
    tail = float(np.mean(var[-n_tail:]))
    excess = var - tail
    thresh = _WINDOW_CUTOFF * (excess[0] if excess[0] > 0 else np.max(excess))
    window = excess > max(thresh, 0.0)
    # keep the initial contiguous window only
    stop = int(np.argmin(window)) if not window.all() else len(window)
    flags = {}
    if stop < 3:
        flags["short_window"] = True
        stop = max(3, stop)
    t_w = times[:stop]
    y = np.log(np.maximum(excess[:stop], 1e-300))
    slope = float(np.polyfit(t_w, y, 1, w=np.sqrt(np.maximum(excess[:stop], 0)))[0])
    rate = -slope / 2.0
    n_efolds = (t_w[-1] - t_w[0]) * max(rate, 0.0) * 2.0
    if n_efolds < math.log(0.5 / _WINDOW_CUTOFF):
        flags["low_confidence"] = True
    # the tail mean stands in for the stationary variance only if the fitted
    # decay exp(-2 rate t) has fallen below the window cutoff where the tail
    # starts; otherwise subtracting it biases the rate upward
    if not 2.0 * rate * (times[-n_tail] - times[0]) > math.log(1.0 / _WINDOW_CUTOFF):
        flags["tail_not_stationary"] = True
    # stderr from replica-halves, each needing 2 replicas for its variance
    if config.replicas < 4:
        flags["stderr_unavailable"] = True
        return GapEstimate(rate, math.nan, "variance-decay", float(config.replicas), flags)
    half = config.replicas // 2
    sub_rates = []
    for sel in (slice(0, half), slice(half, None)):
        v = data[sel].var(axis=0, ddof=1)
        e = np.maximum(v - tail, 1e-300)
        s = float(np.polyfit(t_w, np.log(e[:stop]), 1, w=np.sqrt(np.maximum(e[:stop], 0)))[0])
        sub_rates.append(-s / 2.0)
    stderr = float(abs(sub_rates[0] - sub_rates[1]) / 2.0)
    return GapEstimate(rate, stderr, "variance-decay", float(config.replicas), flags)


@dataclass(frozen=True)
class EntropyDecayCurve:
    times: np.ndarray
    entropies: np.ndarray
    rate: float
    floor: float
    flags: dict = field(default_factory=dict)


def entropy_decay_gaussian(
    system: ParticleSystem, mean0, cov0, times, rho_star: float | None = None
) -> EntropyDecayCurve:
    """Relative entropy of the exact Gaussian flow against its target,
    fitted as H(t) ~ floor + H0 exp(-c t).

    When the tightened LSI constant `rho_star` is supplied, the fitted rate
    is checked against the guaranteed decay 2*rho_star.
    """
    times = np.asarray(times, dtype=float)
    exact = gaussian_exact(system)
    target_mean = np.zeros(system.N * system.d)
    means, covs = ou_exact_flow_stacks(system, mean0, cov0, times)
    ents = gaussian_kl(means, covs, target_mean, exact.covariance)
    flags = {}
    if np.max(ents) <= 1e-15:
        return EntropyDecayCurve(times, ents, math.nan, 0.0, {"identically_zero": True})
    # least squares on log(H - floor), scanning the floor. Every floor lies
    # below 0.999 h_min, so each keeps the times the highest keeps (unless
    # h_min is below about 1e-297), and one Vandermonde solve fits them all.
    floors = np.linspace(0.0, 0.999 * float(np.min(ents[ents > 0])), 64)
    keep = ents - floors[-1] > 1e-300
    t = times[keep]
    logs = np.log(ents[keep] - floors[:, None])  # one row per floor
    slope, intercept = np.polyfit(t, logs.T, 1)
    res = np.sum((logs - (slope[:, None] * t + intercept[:, None])) ** 2, axis=1)
    best = int(np.argmin(res))
    rate, floor = float(-slope[best]), float(floors[best])
    if rho_star is not None:
        flags["rate_geq_2rho_star"] = rate >= 2.0 * rho_star - 1e-9
    return EntropyDecayCurve(times, ents, rate, floor, flags)


@dataclass(frozen=True)
class ConditionalGapResult:
    gaps: np.ndarray
    converged: np.ndarray  # per configuration: its gap is stable under grid refinement
    minimum: float
    median: float
    spread: float
    claimed_rho_N: float | None
    passed: bool | None  # False also when a grid did not converge


def _level_set_window(system: ParticleSystem, others: np.ndarray) -> tuple[float, float]:
    half = 25.0
    for _ in range(_SCAN_DOUBLINGS + 1):
        scan = conditional_potential(system, others, -half, half, 801)
        inside = np.flatnonzero(scan.potential <= _WINDOW_LEVEL)
        if 0 < inside[0] and inside[-1] < scan.n - 1:
            break
        half *= 2.0
    x, u = scan.x, scan.potential

    def crossing(outside: int, node: int) -> float:
        # u crosses the level between the node above it and the one inside,
        # linearly; a level set that reaches an end of the scan ends there
        if not 0 <= outside < scan.n:
            return float(x[node])
        t = (u[outside] - _WINDOW_LEVEL) / (u[outside] - u[node])
        return float(x[outside] + t * (x[node] - x[outside]))

    margin = 8.0 * scan.spacing
    lo, hi = crossing(inside[0] - 1, inside[0]), crossing(inside[-1] + 1, inside[-1])
    return lo - margin, hi + margin


def conditional_gap_mc(
    system: ParticleSystem,
    frozen,
    claimed_rho_N: float | None = None,
    tolerance: float = 1e-3,
) -> ConditionalGapResult:
    """Grid spectral gaps of the first particle's conditional law given each
    frozen configuration of the others, a stack (K, N - 1), each with its
    grid-convergence flag."""
    if system.d != 1:
        raise ValueError("conditional gap oracle needs d = 1")
    frozen = np.asarray(frozen, dtype=float)
    if frozen.ndim != 2 or frozen.shape[0] == 0 or frozen.shape[1] != system.N - 1:
        raise ValueError(
            f"frozen must be a stack of shape (K, N - 1) = (K, {system.N - 1}) "
            f"with K >= 1, got {frozen.shape}"
        )
    gaps = np.empty(len(frozen))
    converged = np.empty(len(frozen), dtype=bool)
    for k, others in enumerate(frozen):
        lo, hi = _level_set_window(system, others)
        res = grid_poincare(conditional_potential(system, others, lo, hi, _CONDITIONAL_GRID_N))
        gaps[k], converged[k] = res.gap, res.converged
    passed = None
    if claimed_rho_N is not None:
        passed = bool(np.min(gaps) >= claimed_rho_N - tolerance and np.all(converged))
    return ConditionalGapResult(
        gaps=gaps,
        converged=converged,
        minimum=float(np.min(gaps)),
        median=float(np.median(gaps)),
        spread=float(np.max(gaps) - np.min(gaps)),
        claimed_rho_N=claimed_rho_N,
        passed=passed,
    )
