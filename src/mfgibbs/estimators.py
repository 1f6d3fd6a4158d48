"""Monte-Carlo estimators confronting the theorem constants with dynamics.

Spectral gaps are estimated from sampled trajectories (autocorrelation
decay, across-replica variance decay), entropy decay from the exact
Gaussian flow, and the conditional Poincare assumption from grid gaps at
sampled frozen configurations.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SimConfig, Trajectory, ou_exact_flow, run_chain
from .energies import ParticleSystem
from .spectral1d import Grid1D, conditional_potential, gaussian_exact, gaussian_kl, grid_poincare

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


@dataclass(frozen=True)
class GapEstimate:
    rate: float
    stderr: float
    method: str  # "autocorr-fit" or "variance-decay"
    effective_samples: float
    flags: dict = field(default_factory=dict)

    def to_json(self, quantity: str = "spectral-gap") -> str:
        return json.dumps(
            {
                "quantity": quantity,
                "rate": self.rate,
                "stderr": self.stderr,
                "method": self.method,
                "effective_samples": self.effective_samples,
                "flags": dict(self.flags),
            }
        )


def _autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    x = series - series.mean()
    n = len(x)
    acf = np.empty(max_lag + 1)
    var = float(x @ x) / n
    if var == 0:
        raise ValueError("constant observable")
    for lag in range(max_lag + 1):
        acf[lag] = float(x[: n - lag] @ x[lag:]) / n / var
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
        batches = list(data)
    else:
        flat = data.reshape(-1)
        n_b = 8
        size = len(flat) // n_b
        batches = [flat[i * size : (i + 1) * size] for i in range(n_b)]
    for b in batches:
        if len(b) > 3 * max_lag:
            r = _fit_rate(_autocorrelation(np.asarray(b), max_lag), dt)
            if math.isfinite(r) and r > 0:
                batch_rates.append(r)
    if len(batch_rates) >= 2:
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
    ents = np.array(
        [
            gaussian_kl(m, c, target_mean, exact.covariance)
            for m, c in ou_exact_flow(system, mean0, cov0, times)
        ]
    )
    flags = {}
    if np.max(ents) <= 1e-15:
        return EntropyDecayCurve(times, ents, math.nan, 0.0, {"identically_zero": True})
    # least squares on log(H - floor), scanning the floor
    positive = ents > 0
    h_min = float(np.min(ents[positive]))

    def residual(floor: float) -> tuple[float, float]:
        excess = ents - floor
        ok = excess > 1e-300
        y = np.log(excess[ok])
        t = times[ok]
        slope, intercept = np.polyfit(t, y, 1)
        return float(np.sum((y - (slope * t + intercept)) ** 2)), float(-slope)

    floors = np.concatenate([[0.0], np.linspace(0.0, 0.999 * h_min, 64)[1:]])
    scored = [(residual(f), f) for f in floors]
    (res, rate), floor = min(scored, key=lambda p: p[0][0])
    if rho_star is not None:
        flags["rate_geq_2rho_star"] = rate >= 2.0 * rho_star - 1e-9
    return EntropyDecayCurve(times, ents, rate, floor, flags)


@dataclass(frozen=True)
class ConditionalGapResult:
    gaps: np.ndarray
    minimum: float
    median: float
    spread: float
    claimed_rho_N: float | None
    passed: bool | None


def _auto_window(grid_scan: Grid1D) -> tuple[float, float]:
    dens = grid_scan.density()
    x = grid_scan.x
    mean = float(np.trapezoid(x * dens, dx=grid_scan.spacing))
    var = float(np.trapezoid((x - mean) ** 2 * dens, dx=grid_scan.spacing))
    half = max(8.0 * math.sqrt(var), 4.0)
    return mean - half, mean + half


def conditional_gap_mc(
    system: ParticleSystem,
    config: SimConfig,
    n_frozen: int = 20,
    grid_n: int = 1201,
    claimed_rho_N: float | None = None,
    tolerance: float = 1e-3,
) -> ConditionalGapResult:
    """Grid spectral gaps of the first particle's conditional law at frozen
    configurations sampled from the chain."""
    if system.d != 1:
        raise ValueError("conditional gap oracle needs d = 1")
    traj = run_chain(
        system,
        config,
        observables={f"c{j}": (lambda x, j=j: float(x[j, 0])) for j in range(system.N)},
    )
    n_rec = traj.steps.shape[0]
    picks = np.linspace(0, n_rec - 1, n_frozen).astype(int)
    gaps = np.empty(n_frozen)
    for k, idx in enumerate(picks):
        frozen = np.array(
            [traj.observables[f"c{j}"][0, idx] for j in range(1, system.N)]
        )
        scan = conditional_potential(system, frozen, -25.0, 25.0, 801)
        lo, hi = _auto_window(scan)
        grid = conditional_potential(system, frozen, lo, hi, grid_n)
        gaps[k] = grid_poincare(grid, check_convergence=False).gap
    passed = None
    if claimed_rho_N is not None:
        passed = bool(np.min(gaps) >= claimed_rho_N - tolerance)
    return ConditionalGapResult(
        gaps=gaps,
        minimum=float(np.min(gaps)),
        median=float(np.median(gaps)),
        spread=float(np.max(gaps) - np.min(gaps)),
        claimed_rho_N=claimed_rho_N,
        passed=passed,
    )
