"""In-memory span recorder and the attribute wrappers that feed it.

Tracing wraps the public entry points of every `mfgibbs` module from the
outside: module-level functions are replaced in each module namespace that
binds them, methods are replaced on their classes, and everything is put
back when the `tracing()` block exits. Nothing under `src/` is edited.

A span is (name, start, end, parent). Spans nest strictly because the
benchmark is single-threaded, so a span's self time is its duration minus
the durations of its direct children. A wrapper entered while a span of the
same name is open records nothing (`ParametrizedEnergy._eval` calling its
base `_eval` is one energy evaluation, not two).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "energies.eval.calls": "count",
    "energies.eval.busy_s": "s",
    "energies.grad.calls": "count",
    "energies.grad.busy_s": "s",
    "energies.pair_bytes": "bytes_computed",
    "energies.flat.calls": "count",
    "energies.flat.busy_s": "s",
    "energies.hess.calls": "count",
    "energies.hess.busy_s": "s",
    "dynamics.chain.busy_s": "s",
    "dynamics.chain.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.accept_ratio": "ratio",
    "dynamics.observable.calls": "count",
    "dynamics.observable.busy_s": "s",
    "estimators.autocorr.busy_s": "s",
    "estimators.variance_decay.self_s": "s",
    "estimators.conditional_gap.self_s": "s",
    "estimators.entropy_decay.self_s": "s",
    "spectral1d.fixed_point.calls": "count",
    "spectral1d.fixed_point.busy_s": "s",
    "spectral1d.fixed_point.iterations": "count",
    "spectral1d.conditional_potential.calls": "count",
    "spectral1d.conditional_potential.busy_s": "s",
    "spectral1d.grid_gap.calls": "count",
    "spectral1d.grid_gap.busy_s": "s",
    "spectral1d.gaussian_exact.busy_s": "s",
    "bounds.hessian_block_bound.busy_s": "s",
    "bounds.semi_convexity.calls": "count",
    "bounds.semi_convexity.busy_s": "s",
    "bounds.report.busy_s": "s",
    "measures.w2.calls": "count",
    "measures.w2.busy_s": "s",
    "measures.mix.calls": "count",
    "config.load_s": "s",
    "cli.csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.csv_bytes_per_s": "bytes/s",
    "cli.json_s": "s",
    "cli.json_bytes": "bytes",
    "verify.sharpness.busy_s": "s",
    "verify.curvature.busy_s": "s",
    "verify.hessian.busy_s": "s",
    "verify.conditional.busy_s": "s",
    "verify.entropy.busy_s": "s",
    "trace.overhead_s": "s",
}

COUNT_UNITS = ("count", "bytes", "bytes_computed")


class Patches:
    """Attribute replacements that undo() puts back, last first."""

    def __init__(self):
        self._undo: list = []

    def setattr(self, owner, attr: str, value):
        self._undo.append(functools.partial(setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def setitem(self, mapping: dict, key, value):
        self._undo.append(functools.partial(mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def rebind(self, original, replacement):
        """Replace `original` in every mfgibbs module namespace that binds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "mfgibbs" and not modname.startswith("mfgibbs."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.setattr(module, attr, replacement)

    def undo(self):
        while self._undo:
            self._undo.pop()()


class Tracer:
    """Records spans into flat arrays, kept in memory until save()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: list[int] = []  # per name id: how many spans of it are open
        self.counters: dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def add(self, counter: str, amount: float):
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def call(self, nid: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span; returns (result, recorded)."""
        if self._open[nid]:
            return fn(*args, **kwargs), False
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[nid] += 1
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs), True
        finally:
            self.end[idx] = time.perf_counter()
            self._open[nid] -= 1
            self._stack.pop()

    def span(self, name: str, fn):
        """Run fn() under a span of its own (the benchmark's operation spans)."""
        return self.call(self.intern(name), fn, (), {})[0]

    def wrap(self, name: str, fn, after=None):
        nid = self.intern(name)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, recorded = call(nid, fn, args, kwargs)
            if recorded and after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )



def save(tracers: list[Tracer], path):
    """All passes' spans in one .npz: pass<k>_{names,name,parent,start,end}."""
    arrays = {}
    for k, tracer in enumerate(tracers, 1):
        name, parent, start, end = tracer.arrays()
        arrays.update({
            f"pass{k}_names": np.array(tracer.names), f"pass{k}_name": name,
            f"pass{k}_parent": parent, f"pass{k}_start": start, f"pass{k}_end": end,
        })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)


# -- what gets wrapped ---------------------------------------------------------


def _pair_bytes_eval(tracer, args, kwargs, result):
    n, d = args[1].shape
    tracer.add("energies.pair_bytes", 8 * n * n * (d + 1))  # z (N,N,d) + W(z) (N,N)


def _pair_bytes_grad(tracer, args, kwargs, result):
    n, d = args[1].shape
    tracer.add("energies.pair_bytes", 8 * n * n * 2 * d)  # z and W'(z) z, both (N,N,d)


def _fixed_point_iterations(tracer, args, kwargs, result):
    tracer.add("spectral1d.fixed_point.iterations", result.iterations)


def _csv_bytes(tracer, args, kwargs, result):
    tracer.add("cli.csv_bytes", os.path.getsize(args[1]))


def _json_bytes(tracer, args, kwargs, result):
    tracer.add("cli.json_bytes", len(args[1].encode()))


def _chain_counts(tracer, config, traj):
    steps = config.n_steps * config.replicas
    tracer.add("dynamics.steps", steps)
    if config.sampler == "MALA":
        tracer.add("dynamics.proposed", steps)
        tracer.add("dynamics.accepted", float(np.round(traj.acceptance_rates * config.n_steps).sum()))


def install(tracer: Tracer, patches: Patches):
    """Wrap every layer boundary of the loaded `mfgibbs` package."""
    from mfgibbs import bounds, cli, config, dynamics, energies, estimators, measures, spectral1d, verify

    energy_classes = [energies.MeanFieldEnergy] + [
        cls for cls in vars(energies).values()
        if isinstance(cls, type) and issubclass(cls, energies.MeanFieldEnergy)
        and cls is not energies.MeanFieldEnergy
    ]
    for cls in energy_classes:
        for attr, name in (
            ("_eval", "energies.eval"),
            ("_grad_all", "energies.grad"),
            ("_grad", "energies.grad"),
            ("_flat", "energies.flat"),
        ):
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            after = None
            if cls is energies.PairwiseKernelEnergy and attr == "_eval":
                after = _pair_bytes_eval
            elif cls is energies.PairwiseKernelEnergy and attr == "_grad_all":
                after = _pair_bytes_grad
            patches.setattr(cls, attr, tracer.wrap(name, fn, after))
    for cls, attr in (
        (energies.MeanFieldEnergy, "intrinsic_hess"),
        (energies.ParticleSystem, "hess_u_n"),
    ):
        patches.setattr(cls, attr, tracer.wrap("energies.hess", vars(cls)[attr]))

    # run_chain takes the observables as callbacks: wrap each one, and
    # resolve the default set exactly as run_chain itself would.
    run_chain = dynamics.run_chain
    default_observables = dynamics.default_observables
    chain_nid = tracer.intern("dynamics.chain")

    @functools.wraps(run_chain)
    def traced_run_chain(system, config, observables=None):
        if observables is None:
            observables = default_observables(system)
        wrapped = {name: tracer.wrap("dynamics.observable", fn) for name, fn in observables.items()}
        traj, recorded = tracer.call(chain_nid, run_chain, (system, config, wrapped), {})
        if recorded:
            _chain_counts(tracer, config, traj)
        return traj

    patches.rebind(run_chain, traced_run_chain)

    for original, name, after in (
        (estimators.estimate_gap_autocorr, "estimators.autocorr", None),
        (estimators.estimate_gap_variance_decay, "estimators.variance_decay", None),
        (estimators.conditional_gap_mc, "estimators.conditional_gap", None),
        (estimators.entropy_decay_gaussian, "estimators.entropy_decay", None),
        (spectral1d.proximal_gibbs_fixed_point, "spectral1d.fixed_point", _fixed_point_iterations),
        (spectral1d.conditional_potential, "spectral1d.conditional_potential", None),
        (spectral1d.grid_poincare, "spectral1d.grid_gap", None),
        (spectral1d.gaussian_exact, "spectral1d.gaussian_exact", None),
        (bounds.hessian_block_bound, "bounds.hessian_block_bound", None),
        (bounds.check_semi_convexity, "bounds.semi_convexity", None),
        (bounds.full_report, "bounds.report", None),
        (measures.w2_squared, "measures.w2", None),
        (measures.mix, "measures.mix", None),
        (config.load_config, "config.load", None),
        (cli._atomic_write, "cli.json", _json_bytes),
    ):
        patches.rebind(original, tracer.wrap(name, original, after))
    to_csv = dynamics.Trajectory.to_csv
    patches.setattr(dynamics.Trajectory, "to_csv", tracer.wrap("cli.csv", to_csv, _csv_bytes))
    for suite, fn in list(verify.SUITES.items()):
        patches.setitem(verify.SUITES, suite, tracer.wrap(f"verify.{suite}", fn))


@contextlib.contextmanager
def tracing():
    """Install a fresh Tracer for the duration of the block."""
    tracer, patches = Tracer(), Patches()
    try:
        install(tracer, patches)
        yield tracer
    finally:
        patches.undo()


@contextlib.contextmanager
def chain_timer(calls: list):
    """Time each run_chain call into `calls`; the only wrapper an untraced
    pass carries, one clock pair per chain."""
    from mfgibbs import dynamics

    run_chain = dynamics.run_chain

    @functools.wraps(run_chain)
    def timed_run_chain(system, config, observables=None):
        t0 = time.perf_counter()
        traj = run_chain(system, config, observables)
        calls.append({
            "N": system.N, "replicas": config.replicas,
            "steps": config.n_steps * config.replicas, "seconds": time.perf_counter() - t0,
        })
        return traj

    patches = Patches()
    try:
        patches.rebind(run_chain, timed_run_chain)
        yield
    finally:
        patches.undo()


# -- aggregation ---------------------------------------------------------------


class SpanTable:
    """Durations, self times and root operations of one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.counters = dict(tracer.counters)
        self.name, self.parent, self.start, self.end = tracer.arrays()
        self.dur = self.end - self.start
        inner = self.parent >= 0
        self._inner = np.nonzero(inner)[0]
        self.child_s = np.bincount(
            self.parent[inner], weights=self.dur[inner], minlength=len(self.dur)
        )
        self.self_s = self.dur - self.child_s
        # parents precede children, so pointer jumping reaches each root
        root = np.where(inner, self.parent, np.arange(len(self.parent)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent, plus parents
        whose children sum to more than the parent's own duration."""
        i = self._inner
        p = self.parent[i]
        outside = np.count_nonzero((self.start[i] < self.start[p]) | (self.end[i] > self.end[p]))
        return int(outside + np.count_nonzero(self.child_s > self.dur + 1e-9))

    def _select(self, name: str, op: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        sel = self.name == self.names.index(name)
        if op is not None:
            ops = [k for k, nm in enumerate(self.names) if nm == op]
            roots = np.nonzero(np.isin(self.name, ops) & (self.parent < 0))[0]
            sel &= np.isin(self.root, roots)
        return sel

    def calls(self, name: str, op: str | None = None) -> int:
        return int(np.count_nonzero(self._select(name, op)))

    def busy(self, name: str, op: str | None = None) -> float:
        return float(self.dur[self._select(name, op)].sum())

    def breakdown(self, op: str) -> dict:
        """Busy seconds of every span name inside the root spans named `op`."""
        parts = {nm: self.busy(nm, op) for nm in self.names if nm != op}
        return {nm: t for nm, t in parts.items() if t > 0}

    def own(self, name: str) -> float:
        return float(self.self_s[self._select(name)].sum())

    def layer_metrics(self) -> dict:
        """Every per-layer metric of LAYER_METRICS except trace.overhead_s."""
        c = self.counters.get
        steps = c("dynamics.steps", 0.0)
        proposed = c("dynamics.proposed", 0.0)
        csv_s = self.busy("cli.csv")
        m = {
            "energies.pair_bytes": c("energies.pair_bytes", 0.0),
            "dynamics.chain.busy_s": self.busy("dynamics.chain"),
            "dynamics.chain.self_s": self.own("dynamics.chain"),
            "dynamics.steps": steps,
            "dynamics.us_per_step": 1e6 * self.busy("dynamics.chain") / steps if steps else 0.0,
            "dynamics.accept_ratio": c("dynamics.accepted", 0.0) / proposed if proposed else 0.0,
            "estimators.autocorr.busy_s": self.busy("estimators.autocorr"),
            "spectral1d.fixed_point.iterations": c("spectral1d.fixed_point.iterations", 0.0),
            "spectral1d.gaussian_exact.busy_s": self.busy("spectral1d.gaussian_exact"),
            "bounds.hessian_block_bound.busy_s": self.busy("bounds.hessian_block_bound"),
            "bounds.report.busy_s": self.busy("bounds.report"),
            "measures.mix.calls": self.calls("measures.mix"),
            "config.load_s": self.busy("config.load"),
            "cli.csv_s": csv_s,
            "cli.csv_bytes": c("cli.csv_bytes", 0.0),
            "cli.csv_bytes_per_s": c("cli.csv_bytes", 0.0) / csv_s if csv_s else 0.0,
            "cli.json_s": self.busy("cli.json"),
            "cli.json_bytes": c("cli.json_bytes", 0.0),
        }
        for span in (
            "energies.eval", "energies.grad", "energies.flat", "energies.hess",
            "dynamics.observable", "spectral1d.fixed_point",
            "spectral1d.conditional_potential", "spectral1d.grid_gap",
            "bounds.semi_convexity", "measures.w2",
        ):
            m[f"{span}.calls"] = self.calls(span)
            m[f"{span}.busy_s"] = self.busy(span)
        for span in (
            "estimators.variance_decay", "estimators.conditional_gap",
            "estimators.entropy_decay",
        ):
            m[f"{span}.self_s"] = self.own(span)
        for suite in ("sharpness", "curvature", "hessian", "conditional", "entropy"):
            m[f"verify.{suite}.busy_s"] = self.busy(f"verify.{suite}")
        return {
            k: int(round(m[k])) if LAYER_METRICS[k] in COUNT_UNITS else m[k]
            for k in LAYER_METRICS if k in m
        }
