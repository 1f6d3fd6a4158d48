"""Samplers for the Gibbs measure exp(-U_N)/Z and exact Gaussian flows.

ULA is the Euler-Maruyama discretization of the overdamped Langevin
dynamics dX = -grad U_N dt + sqrt(2) dB; MALA adds a Metropolis-Hastings
correction and is unbiased. Quadratic-mean energies admit an exact
Ornstein-Uhlenbeck propagator used as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import ParticleSystem, QuadraticMeanEnergy
from .errors import BlowUpError, GibbsUndefinedError

__all__ = [
    "SimConfig",
    "ChainState",
    "Trajectory",
    "make_rng",
    "ula_step",
    "mala_step",
    "run_chain",
    "ou_exact_flow",
]

BLOWUP_THRESHOLD = 1e8

SAMPLERS = ("ULA", "MALA")


@dataclass(frozen=True)
class SimConfig:
    step: float
    n_steps: int
    burn_in: int = 0
    thin: int = 1
    replicas: int = 1
    seed: int = 0
    sampler: str = "MALA"
    initial: object = "zeros"  # "zeros" | ("gaussian", scale) | explicit (N, d) array

    def __post_init__(self):
        if not self.step > 0:  # NaN fails too
            raise ValueError("step must be positive")
        if self.n_steps < 1 or self.thin < 1 or self.replicas < 1:
            raise ValueError("n_steps, thin, replicas must be positive")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")


@dataclass(frozen=True)
class ChainState:
    configuration: np.ndarray  # (N, d)
    step_index: int = 0
    acceptance_count: int = 0


def make_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replica): reproducible and
    independent across replicas regardless of scheduling."""
    key = np.array([seed % 2**64, replica % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mala_log_q(x_from, x_to, grad_from, h):
    # log density of the ULA proposal x_to ~ N(x_from - h grad, 2h I), up to
    # the shared normalization
    resid = x_to - x_from + h * grad_from
    return -float(np.sum(resid * resid)) / (4.0 * h)


def _ula_update(x, grad, h, noise, step, replica) -> np.ndarray:
    """The ULA move x - h grad + sqrt(2h) noise numbered `step`; also the
    MALA proposal."""
    y = x - h * grad + math.sqrt(2.0 * h) * noise
    # NaN compares false, so a non-finite move blows up too
    if not np.abs(y).max() < BLOWUP_THRESHOLD:
        raise BlowUpError(f"blow-up at step {step}", step=step, replica=replica)
    return y


def _mala_update(energy, w, x, grad_x, u_x, h, noise, log_u, step, replica):
    """ULA proposal from x (with grad U_N and U_N cached there), accepted
    when log_u < log alpha. Returns (x, grad_x, u_x, accepted) after the move."""
    y = _ula_update(x, grad_x, h, noise, step, replica)
    f_y, grad_y = energy._value_and_grad(y, w)
    u_y = len(w) * f_y
    log_alpha = u_x - u_y + _mala_log_q(y, x, grad_y, h) - _mala_log_q(x, y, grad_x, h)
    if log_u < log_alpha:
        return y, grad_y, u_y, True
    return x, grad_x, u_x, False


def _start(system: ParticleSystem, state: ChainState, h: float):
    """(x, uniform weights) for one public step."""
    if not h > 0:
        raise ValueError("step must be positive")
    return system._check(state.configuration), np.full(system.N, 1.0 / system.N)


def ula_step(
    system: ParticleSystem, state: ChainState, h: float, rng: np.random.Generator
) -> ChainState:
    """x <- x - h grad U_N(x) + sqrt(2h) xi, xi standard normal."""
    x, w = _start(system, state, h)
    grad = system.energy._grad_all(x, w)
    y = _ula_update(x, grad, h, rng.standard_normal(x.shape), state.step_index + 1, None)
    return ChainState(y, state.step_index + 1, state.acceptance_count)


def mala_step(
    system: ParticleSystem, state: ChainState, h: float, rng: np.random.Generator
) -> ChainState:
    """ULA proposal with Metropolis-Hastings correction; reversible for m_*^N."""
    x, w = _start(system, state, h)
    noise, log_u = rng.standard_normal(x.shape), np.log(rng.uniform())
    f_x, grad_x = system.energy._value_and_grad(x, w)
    x, _, _, accepted = _mala_update(
        system.energy, w, x, grad_x, system.N * f_x, h, noise, log_u, state.step_index + 1, None
    )
    return ChainState(x, state.step_index + 1, state.acceptance_count + accepted)


@dataclass
class Trajectory:
    """Recorded observables, replica-major."""

    step: float
    thin: int
    burn_in: int
    steps: np.ndarray  # recorded step indices, shared across replicas
    observables: dict  # name -> (replicas, n_records) array
    acceptance_rates: np.ndarray  # per replica; NaN for ULA
    seed: int
    sampler: str

    @property
    def times(self) -> np.ndarray:
        return self.steps * self.step

    def to_csv(self, path):
        """Rows `replica,step,time,observable,value`, replica-major order."""
        names = sorted(self.observables)
        with open(path, "w") as fh:
            fh.write("replica,step,time,observable,value\n")
            for r in range(self.acceptance_rates.shape[0]):
                for k, s in enumerate(self.steps):
                    t = s * self.step
                    for name in names:
                        v = self.observables[name][r, k]
                        fh.write(f"{r},{s},{t:.17g},{name},{v:.17g}\n")


_RNG_CHUNK = 4096


def _run_single_chain(
    system, config, rng, x0, observables, record_steps, values, replica
) -> float:
    """Sequential chain through the ula_step / mala_step transitions, with
    noise and uniforms drawn in chunks of _RNG_CHUNK steps."""
    h = config.step
    energy = system.energy
    N = system.N
    w = np.full(N, 1.0 / N)
    mala = config.sampler == "MALA"
    x = np.array(x0, dtype=float)
    if mala:
        f_x, grad_x = energy._value_and_grad(x, w)
        u_x = N * f_x
    accepted = 0
    k = 0
    n_rec = len(record_steps)
    fns = list(observables.items())
    s = 0
    while s < config.n_steps:
        chunk = min(_RNG_CHUNK, config.n_steps - s)
        noise = rng.standard_normal((chunk, N, system.d))
        log_u = np.log(rng.uniform(size=chunk)) if mala else None
        for c in range(chunk):
            s += 1
            if mala:
                x, grad_x, u_x, acc = _mala_update(
                    energy, w, x, grad_x, u_x, h, noise[c], log_u[c], s, replica
                )
                accepted += acc
            else:
                x = _ula_update(x, energy._grad_all(x, w), h, noise[c], s, replica)
            if k < n_rec and s == record_steps[k]:
                for name, fn in fns:
                    values[name][replica, k] = fn(x)
                k += 1
    return accepted / config.n_steps if mala else np.nan


def _initial_configuration(system: ParticleSystem, initial, rng) -> np.ndarray:
    if isinstance(initial, str):
        if initial == "zeros":
            return np.zeros((system.N, system.d))
        raise ValueError(f"unknown initial condition {initial!r}")
    if isinstance(initial, tuple) and initial and initial[0] == "gaussian":
        scale = float(initial[1]) if len(initial) > 1 else 1.0
        return scale * rng.standard_normal((system.N, system.d))
    x = np.asarray(initial, dtype=float)
    if x.shape != (system.N, system.d):
        raise ValueError("explicit initial configuration has wrong shape")
    return x


def default_observables(system: ParticleSystem) -> dict:
    return {
        "xbar": lambda x: float(np.mean(x[:, 0])),
        "x1": lambda x: float(x[0, 0]),
        "u_n": system.u_n,
    }


def run_chain(
    system: ParticleSystem, config: SimConfig, observables: dict | None = None
) -> Trajectory:
    """Run `config.replicas` independent chains and record observables
    every `thin` steps after burn-in. Deterministic given (seed, replica)."""
    if observables is None:
        observables = default_observables(system)
    record_steps = np.arange(config.burn_in + 1, config.n_steps + 1)
    record_steps = record_steps[(record_steps - config.burn_in - 1) % config.thin == 0]
    n_rec = len(record_steps)
    values = {name: np.empty((config.replicas, n_rec)) for name in observables}
    acc = np.full(config.replicas, np.nan)
    for r in range(config.replicas):
        rng = make_rng(config.seed, r)
        x0 = _initial_configuration(system, config.initial, rng)
        acc[r] = _run_single_chain(
            system, config, rng, x0, observables, record_steps, values, r
        )
    return Trajectory(
        step=config.step,
        thin=config.thin,
        burn_in=config.burn_in,
        steps=record_steps,
        observables=values,
        acceptance_rates=acc,
        seed=config.seed,
        sampler=config.sampler,
    )


def ou_exact_flow(system: ParticleSystem, mean0, cov0, times):
    """Exact Gaussian law of the Langevin dynamics for quadratic-mean energies.

    mean_t = exp(-A t) mean0; cov_t = exp(-A t) cov0 exp(-A t)
    + A^{-1} (I - exp(-2 A t)), with A = grad^2 U_N constant.
    """
    if not isinstance(system.energy, QuadraticMeanEnergy):
        raise TypeError("exact flow needs a quadratic-mean energy")
    if system.energy.a >= 1.0:
        raise GibbsUndefinedError("gibbs-undefined: a >= 1")
    n = system.N * system.d
    A = system.hess_u_n(np.zeros((system.N, system.d)))
    mean0 = np.asarray(mean0, dtype=float).reshape(n)
    cov0 = np.asarray(cov0, dtype=float).reshape(n, n)
    evals, evecs = np.linalg.eigh(A)
    if evals[0] <= 0:
        raise GibbsUndefinedError("gibbs-undefined: precision not positive definite")
    inv_evals = 1.0 / evals
    out = []
    for t in np.asarray(times, dtype=float):
        decay = np.exp(-evals * t)
        E = evecs @ np.diag(decay) @ evecs.T
        stat = evecs @ np.diag(inv_evals * (1.0 - decay**2)) @ evecs.T
        out.append((E @ mean0, E @ cov0 @ E + stat))
    return out
