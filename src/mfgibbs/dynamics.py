"""Samplers for the Gibbs measure exp(-U_N)/Z.

ULA is the Euler-Maruyama discretization of the overdamped Langevin
dynamics dX = -grad U_N dt + sqrt(2) dB; MALA adds a Metropolis-Hastings
correction and is unbiased. The exact Ornstein-Uhlenbeck flow of a
quadratic-mean energy, their oracle, is `spectral1d.ou_exact_flow_stacks`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .energies import ParticleSystem
from .errors import BlowUpError

__all__ = [
    "SimConfig",
    "Trajectory",
    "make_rng",
    "run_chain",
]

BLOWUP_THRESHOLD = 1e8

SAMPLERS = ("ULA", "MALA")

#: Steps per draw of noise and uniforms. The states recorded within a chunk
#: wait in its spent noise slots and are evaluated as one block after it;
#: `Trajectory.to_csv` formats records in blocks of this size too.
_RNG_CHUNK = 4096

#: Entries of the (G, chunk, N, d) noise buffer of one replica group, 2 MB:
#: it sets how many replicas `run_chain` moves as one array.
_GROUP_ENTRIES = 2**18


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
        if not 0 < self.step < math.inf:  # NaN fails too
            raise ValueError("step must be positive and finite")
        if self.n_steps < 1 or self.thin < 1 or self.replicas < 1:
            raise ValueError("n_steps, thin, replicas must be positive")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        _check_seed(self.seed)

    def record_steps(self) -> np.ndarray:
        """The recorded step indices: every `thin` steps after burn-in."""
        return np.arange(self.burn_in + 1, self.n_steps + 1, self.thin)


def _check_seed(seed):
    """A seed is a 64-bit key word: ValueError for a non-integer or one
    outside [0, 2^64), which the key would truncate or reduce into another
    seed's stream."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ValueError("seed must be an integer in [0, 2**64)")


def make_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replica): reproducible and
    independent across replicas regardless of scheduling. The seed must be
    an integer in [0, 2^64), so that no two seeds share a stream."""
    _check_seed(seed)
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _move(x, hg, kick):
    """The ULA move x - h grad U_N(x) + kick, kick = sqrt(2h) xi, also the
    MALA proposal, from hg = h grad U_N(x), of one configuration (N, d) or a
    batch (G, N, d); with the index of the first moved configuration at or
    above BLOWUP_THRESHOLD, or None. NaN compares false, so a non-finite move
    blows up too. One configuration reads its max |y| at `argmax`, which
    stops at the first NaN and, like the batch's max, raises no
    floating-point flag."""
    y = x - hg + kick
    if y.ndim == 2:
        a = np.abs(y)
        return y, None if a.item(a.argmax()) < BLOWUP_THRESHOLD else 0
    ok = np.maximum.reduce(np.abs(y).reshape(len(y), -1), axis=1) < BLOWUP_THRESHOLD
    first = int(np.argmin(ok))
    return y, None if ok[first] else first


def _sq_norms(a):
    """|a|^2 over the last two axes (N, d) of a, one BLAS dot over the
    flattened N*d entries per configuration: a Python float for one
    configuration (`ndarray.dot`), one value per configuration for any
    leading axes (`np.vecdot`), which is bit for bit that configuration's
    `ndarray.dot` in any batch. Like any BLAS dot, one over more than 10^4
    entries may change its last bit with the number of BLAS threads."""
    if a.ndim == 2:
        flat = a.reshape(-1)
        return float(flat.dot(flat))
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.vecdot(flat, flat)


def _mala_log_alpha(u_x, u_y, hg_x, hg_y, kick, kick_sq, h):
    """log of the MALA acceptance ratio of the proposal y = x - hg_x + kick
    from x, hg = h grad U_N at x or y, kick = sqrt(2h) xi and kick_sq =
    |kick|^2: u_x - u_y + log q(y -> x) - log q(x -> y), where the proposal's
    log density, up to the normalization both directions share, is
    log q(a -> b) = -|b - a + h grad U_N(a)|^2 / (4h). The forward residual
    y - x + hg_x is the kick, and the backward one x - y + hg_y is
    hg_x + hg_y - kick, so
    log alpha = u_x - u_y + (|kick|^2 - |hg_x + hg_y - kick|^2) / (4h).
    A scalar for one configuration (N, d), one value per configuration for a
    batch (G, N, d)."""
    return u_x - u_y + (kick_sq - _sq_norms(hg_x + hg_y - kick)) / (4.0 * h)


@dataclass
class Trajectory:
    """Recorded observables, replica-major."""

    step: float
    thin: int
    steps: np.ndarray  # recorded step indices, shared across replicas
    observables: dict  # name -> (replicas, n_records) array
    acceptance_rates: np.ndarray  # per replica; NaN for ULA

    @property
    def times(self) -> np.ndarray:
        return self.steps * self.step

    def to_csv(self, path):
        """Rows `replica,step,time,observable,value`, replica-major order,
        formatted and written one block of at most _RNG_CHUNK records at a
        time: each column of a block by one `%` format mapped over it, its
        rows then interleaved step by step into one join."""
        names = sorted(self.observables)
        # a `%` in an observable's name is escaped out of its row format
        formats = [f"%s{name.replace('%', '%%')},%.17g\n".__mod__ for name in names]
        with open(path, "w") as fh:
            fh.write("replica,step,time,observable,value\n")
            for r in range(self.acceptance_rates.shape[0]):
                step_format = f"{r},%s,%.17g,".__mod__
                for k in range(0, len(self.steps), _RNG_CHUNK):
                    block = slice(k, k + _RNG_CHUNK)
                    steps = self.steps[block]
                    times = (steps * self.step).tolist()
                    prefixes = list(map(step_format, zip(steps.tolist(), times)))
                    columns = [map(fmt, zip(prefixes, self.observables[name][r, block].tolist()))
                               for fmt, name in zip(formats, names)]
                    fh.write("".join(chain.from_iterable(zip(*columns))))


def _by_step(rows, chunk, kicks, log_u, kick_sq):
    """The kicks, log u and |kick|^2 of the replicas `rows` over the first
    `chunk` steps of a chunk, step first and without a copy: kicks
    (chunk, N, d) for a group of one (rows = 0), (chunk, G, N, d) for a
    larger group; log u and |kick|^2 as memoryviews, whose items are Python
    floats, for a group of one, (chunk, G) views for a larger group, and
    None under ULA."""
    kick_at = np.moveaxis(kicks[rows, :chunk], -3, 0)
    if log_u is None:
        return kick_at, None, None
    log_u_at, kick_sq_at = log_u[rows, :chunk].T, kick_sq[rows].T
    if rows == 0:
        return kick_at, memoryview(log_u_at), memoryview(kick_sq_at)
    return kick_at, log_u_at, kick_sq_at


def _run_group(system, config, replicas, observables, record_steps, values):
    """The replicas of the range `replicas` as one chain loop: a group of one
    carries its state as (N, d), a larger group as (G, N, d). The state is
    checked once, when it is drawn; each step calls the system's unchecked
    lifts `_u_n_and_grad` (MALA) or `_grad_u_n` (ULA), which take either
    shape. Replica r draws from make_rng(seed, r), per chunk of _RNG_CHUNK
    steps, its noise and then its uniforms into its row of a
    (G, chunk, N, d) buffer; under MALA the chunk's |kick|^2, one value per
    replica and step, is taken after the draws by one BLAS dot per kick
    (`_sq_norms`). `_by_step` hands the loop the chunk step by step, and a
    group of one its log u and |kick|^2 as Python floats, so that its accept
    test is float arithmetic. MALA carries hg = h grad U_N with the state
    and U_N, proposes y = x - hg_x + kick and accepts each replica on its
    own when log u < u_x - u_y + (|kick|^2 - |hg_x + hg_y - kick|^2) / (4h)
    (`_mala_log_alpha`), so each replica's records and acceptance rate are
    bit for bit those of its chain run alone. Record j of a chunk waits in
    the noise slot of step j, already spent, and with U_N under MALA in the
    uniform's slot; after the chunk the built-in observables take the
    group's recorded states as one block, and any other callable is called
    once per replica and recorded state. A replica that blows up cuts the
    group, and the state it carries, to the replicas below it, which run on;
    when the group ends, the lowest one that blew up is raised at its own
    step, as its chain alone reports. Returns the acceptance rates, NaN for
    ULA."""
    h = config.step
    mala = config.sampler == "MALA"
    rngs = [make_rng(config.seed, r) for r in replicas]
    x = np.stack([_initial_configuration(system, config.initial, rng) for rng in rngs])
    live = len(rngs)
    one = live == 1
    rows = 0 if one else slice(0, live)  # a group of one drops the group axis
    x = x[rows]
    accepted = 0 if one else np.zeros(live, dtype=np.int64)
    if mala:
        u_x, grad_x = system._u_n_and_grad(x)
        hg_x = h * grad_x
    blown = None
    record = record_steps.tolist() + [0]  # the 0 sentinel is never reached
    k = 0
    kicks = np.empty((live, min(_RNG_CHUNK, config.n_steps), system.N, system.d))
    log_u = np.empty(kicks.shape[:2]) if mala else None
    s = 0
    while s < config.n_steps:
        chunk = min(_RNG_CHUNK, config.n_steps - s)
        for i in range(live):
            rngs[i].standard_normal(out=kicks[i, :chunk])
            if mala:
                log_u[i, :chunk] = np.log(rngs[i].uniform(size=chunk))
        kicks[:live, :chunk] *= math.sqrt(2.0 * h)
        kick_sq = _sq_norms(kicks[:live, :chunk]) if mala else None
        kick_at, log_u_at, kick_sq_at = _by_step(rows, chunk, kicks, log_u, kick_sq)
        k0 = k
        for c in range(chunk):
            s += 1
            kick = kick_at[c]
            y, bad = _move(x, hg_x if mala else h * system._grad_u_n(x), kick)
            if bad is not None:
                blown = BlowUpError(f"blow-up at step {s}", step=s, replica=replicas.start + bad)
                if bad == 0:
                    raise blown
                live, rows = bad, slice(0, bad)
                x, y, kick = x[rows], y[rows], kick[rows]
                if mala:
                    u_x, hg_x = u_x[rows], hg_x[rows]
                kick_at, log_u_at, kick_sq_at = _by_step(rows, chunk, kicks, log_u, kick_sq)
            if mala:
                u_y, grad_y = system._u_n_and_grad(y)
                hg_y = h * grad_y
                log_alpha = _mala_log_alpha(u_x, u_y, hg_x, hg_y, kick, kick_sq_at[c], h)
                acc = log_u_at[c] < log_alpha
                if one:
                    if acc:
                        x, hg_x, u_x = y, hg_y, u_y
                        accepted += 1
                else:
                    accepted[rows] += acc
                    moved = acc[:, None, None]
                    x, hg_x = np.where(moved, y, x), np.where(moved, hg_y, hg_x)
                    u_x = np.where(acc, u_y, u_x)
            else:
                x = y
            if s == record[k]:
                kicks[rows, k - k0] = x
                if mala:
                    log_u[rows, k - k0] = u_x
                k += 1
        if k > k0:
            n = k - k0
            states = kicks[rows, :n].reshape(-1, system.N, system.d)
            u_block = log_u[rows, :n].reshape(-1) if mala else None
            out = slice(replicas.start, replicas.start + live), slice(k0, k)
            for name, block in _record(observables, states, u_block).items():
                values[name][out] = np.reshape(block, (live, n))
    if blown is not None:
        raise blown
    return accepted / config.n_steps if mala else np.nan


def _record(observables, states, u_n) -> dict:
    """Observables of a block of recorded states (K, N, d), K values each:
    built-ins as array expressions over the block, any other callable once
    per state, state by state in block order, its values taken by
    `np.fromiter` into one (K, callables) array as they come."""
    out = {name: fn.block(states, u_n) for name, fn in observables.items()
           if isinstance(fn, _Observable)}
    per_state = {name: fn for name, fn in observables.items() if name not in out}
    if per_state:
        fns = list(per_state.values())
        flat = np.fromiter((fn(x) for x in states for fn in fns), dtype=float,
                           count=len(states) * len(fns))
        out.update(zip(per_state, flat.reshape(len(states), len(fns)).T))
    return out


def _replica_groups(replicas: int, per_replica: int) -> list[range]:
    """Consecutive replica ranges that `run_chain` moves as one array each:
    as few as keep each group's per_replica entries within _GROUP_ENTRIES,
    their sizes within one of each other, and at least one replica each."""
    size = max(1, _GROUP_ENTRIES // per_replica)
    count = -(-replicas // size)
    ends = [replicas * i // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _initial_configuration(system: ParticleSystem, initial, rng) -> np.ndarray:
    if isinstance(initial, str):
        if initial == "zeros":
            return np.zeros((system.N, system.d))
        raise ValueError(f"unknown initial condition {initial!r}")
    if isinstance(initial, tuple) and initial and initial[0] == "gaussian":
        scale = float(initial[1]) if len(initial) > 1 else 1.0
        return scale * rng.standard_normal((system.N, system.d))
    x = system._check(initial)
    if x.ndim != 2:
        raise ValueError(f"a chain state is one configuration, not a batch of shape {x.shape}")
    return x


@dataclass(frozen=True)
class _Observable:
    """A built-in observable, written once in block form:
    `obs.block(states, u_n)` on a block of states (K, N, d) with their U_N
    (K,) when the sampler holds it (MALA), else None. `obs(x)` on one state
    (N, d) is the block of one. `run_chain` evaluates it on blocks; any other
    callable, including one that wraps an _Observable, is called once per
    recorded state."""

    block: Callable

    def __call__(self, x) -> float:
        return float(self.block(np.asarray(x, dtype=float)[None], None)[0])


def default_observables(system: ParticleSystem) -> dict:
    """The built-in observables by name; the one table of their names."""

    def u_n_block(states, u_n):
        return u_n if u_n is not None else system.u_n(states)

    return {
        "xbar": _Observable(lambda xs, u: np.mean(xs[:, :, 0], axis=1)),
        "x1": _Observable(lambda xs, u: xs[:, 0, 0]),
        "u_n": _Observable(u_n_block),
    }


def run_chain(
    system: ParticleSystem, config: SimConfig, observables: dict | None = None
) -> Trajectory:
    """Run `config.replicas` independent chains and record observables
    every `thin` steps after burn-in. Deterministic given (seed, replica):
    replica r's records are the same whatever the replica count. Replicas
    run in groups whose noise buffer fits in _GROUP_ENTRIES, every group,
    R=1's group of one included, through the one loop `_run_group`. A
    blow-up raises BlowUpError for the lowest replica that blows up, at its
    own step."""
    if observables is None:
        observables = default_observables(system)
    record_steps = config.record_steps()
    values = {name: np.empty((config.replicas, len(record_steps))) for name in observables}
    acc = np.empty(config.replicas)
    chunk = min(_RNG_CHUNK, config.n_steps)
    for group in _replica_groups(config.replicas, chunk * system.N * system.d):
        acc[group.start : group.stop] = _run_group(
            system, config, group, observables, record_steps, values
        )
    return Trajectory(
        step=config.step,
        thin=config.thin,
        steps=record_steps,
        observables=values,
        acceptance_rates=acc,
    )
