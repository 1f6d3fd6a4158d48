"""The three benchmark workloads, their generated inputs and output checks.

Every workload is a closed loop: one operation at a time, each issued after
the previous one returned. An operation is one CLI command (`mfgibbs.cli.main`
called in-process) or one library call; a pass runs each of the workload's
operations once. The program only sees inputs generated here from the
workload seed.

- chain-long: `simulate` then `estimate` on one long single-replica MALA
  chain of the quadratic-mean energy (N=10). The per-step Python loop, the
  observable callbacks and the CSV writer dominate; the energy is cheap.
  R=1 is the case the sampler-correctness criterion runs.
- kernel-replicas: a variance-decay gap estimate plus the theorem bound for
  the pairwise kernel energy at N in {50, 200}, 16 short MALA replicas. The
  O(N^2) pair interaction dominates, and `dynamics` is used as many short
  replicas instead of one long chain.
- oracles: `constants` on three configs and all five `verify` suites, the
  deterministic oracle path with almost no chain work. The parametrized
  config's proximal-Gibbs fixed point at grid_n=401 is the largest step.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

from mfgibbs import bounds, cli, config, dynamics, estimators

SUITES = ("sharpness", "curvature", "hessian", "conditional", "entropy")

# Shared by every workload: name -> unit.
COMMON_METRICS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "norm_wall_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


def _ini(path: str, sections: dict) -> str:
    with open(path, "w") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")
    return path


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv) -> tuple[int, str]:
    """`mfgibbs <argv>` in-process; returns (exit code, captured stdout+stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue()


def mean_square(x) -> float:
    """Replica observable of the N-scan: mean over particles of |x_i|^2."""
    return float(np.mean(np.sum(x * x, axis=1)))


class Workload:
    """Generates its inputs into `workdir`; subclasses define the operations.

    `ops()` lists (name, callable) for one pass; each callable returns a dict
    of outputs. `check(name, out, done)` returns the failed checks of one
    operation, given the outputs of earlier operations in the same pass
    (`done`) and of the first pass (`self.first`).
    """

    name = ""
    metrics: dict = {}

    def __init__(self, workdir: str, seed: int, smoke: bool):
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")
        self.first: dict = {}
        self.notices: set[str] = set()  # program diagnostics worth reporting, not failures

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def sim_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def ops(self):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def check(self, name: str, out: dict, done: dict) -> list[str]:
        raise NotImplementedError

    def end_to_end(self, passes, chain_calls) -> dict:
        """Workload-specific end-to-end samples: name -> list of values."""
        raise NotImplementedError

    def findings(self, table) -> list[str]:
        return []

    def same_as_first(self, name: str, out: dict, keys) -> list[str]:
        ref = self.first.setdefault(name, out)
        return [f"{k} differs from the first pass" for k in keys if out[k] != ref[k]]


def _op_samples(passes, op: str) -> list[float]:
    return [p["ops"][op] for p in passes if op in p["ops"]]


class ChainLong(Workload):
    name = "chain-long"
    metrics = {
        "simulate_s": "s",
        "estimate_s": "s",
        "chain_steps_per_s": "replica-steps/s",
    }
    A, N = 0.5, 10
    VAR_TOL = 0.15  # relative, on Var(xbar) = 1/(N(1-a)) = 0.2
    RATE_TOL = 0.35  # relative, on the autocorrelation-fit gap 1-a = 0.5

    def __init__(self, workdir, seed, smoke):
        super().__init__(workdir, seed, smoke)
        self.n_steps = 4_000 if smoke else 50_000
        self.burn_in = self.n_steps // 10
        self.max_lag = 50 if smoke else 200
        sim = {
            "step": 0.1, "n_steps": self.n_steps, "burn_in": self.burn_in,
            "replicas": 1, "seed": self.sim_seed(), "sampler": "MALA",
        }
        sections = {
            "energy": {"type": "quadratic", "a": self.A},
            "system": {"n": self.N, "d": 1},
            "sim": sim,
            "analysis": {"observable": "xbar", "max_lag": self.max_lag},
        }
        self.config = _ini(self.path("chain.ini"), sections)
        sim_warm = dict(sim, n_steps=500, burn_in=50)
        self.warm_config = _ini(self.path("warm.ini"), dict(sections, sim=sim_warm))

    def warm_up(self):
        run_cli(["simulate", "--config", self.warm_config, "--out", self.path("warm.csv")])

    def ops(self):
        csv, gap = self.path("traj.csv"), self.path("gap.json")

        def simulate():
            code, _ = run_cli(["simulate", "--config", self.config, "--out", csv])
            return {"code": code, "csv": csv}

        def estimate():
            code, _ = run_cli(["estimate", "--config", self.config, "--out", gap])
            return {"code": code, "json": gap}

        return [("simulate", simulate), ("estimate", estimate)]

    def check(self, name, out, done):
        if out["code"] != 0:
            return [f"exit code {out['code']}, expected 0"]
        fails = []
        if name == "simulate":
            with open(out["csv"], "rb") as fh:
                data = fh.read()
            out["sha256"] = hashlib.sha256(data).hexdigest()
            out["meta_sha256"] = _sha256(out["csv"] + ".meta.json")
            rows = data.decode().splitlines()[1:]
            expected = 3 * (self.n_steps - self.burn_in)
            if len(rows) != expected:
                fails.append(f"{len(rows)} CSV records, expected {expected}")
            xbar = np.array([float(r.rsplit(",", 1)[1]) for r in rows if ",xbar," in r])
            exact = 1.0 / (self.N * (1.0 - self.A))
            var = float(np.var(xbar))
            if not self.smoke and abs(var / exact - 1.0) > self.VAR_TOL:
                fails.append(f"Var(xbar)={var:.4f}, exact {exact} +-{self.VAR_TOL:.0%}")
            fails += self.same_as_first(name, out, ("sha256", "meta_sha256"))
        else:
            out["sha256"] = _sha256(out["json"])
            with open(out["json"]) as fh:
                rate = json.load(fh)["estimate"]["rate"]
            exact = 1.0 - self.A
            if not (isinstance(rate, float) and math.isfinite(rate)):
                fails.append(f"rate {rate} is not finite")
            elif not self.smoke and abs(rate / exact - 1.0) > self.RATE_TOL:
                fails.append(f"rate={rate:.4f}, exact {exact} +-{self.RATE_TOL:.0%}")
            fails += self.same_as_first(name, out, ("sha256",))
        return fails

    def end_to_end(self, passes, chain_calls):
        return {
            "simulate_s": _op_samples(passes, "simulate"),
            "estimate_s": _op_samples(passes, "estimate"),
            "chain_steps_per_s": [c["steps"] / c["seconds"] for c in chain_calls],
        }

    def findings(self, table):
        chain = table.busy("dynamics.chain")
        if not chain:
            return []
        return [
            f"chain self time {table.own('dynamics.chain') / chain:.0%} of dynamics.chain; "
            f"observables {table.busy('dynamics.observable') / chain:.0%}; "
            f"energies.eval + energies.grad "
            f"{(table.busy('energies.eval') + table.busy('energies.grad')) / chain:.0%} "
            "(including the u_n observable's energy calls)"
        ]


class KernelReplicas(Workload):
    name = "kernel-replicas"
    metrics = {
        "chain_steps_per_s": "replica-steps/s",
        "nscan_s": "s",
    }
    ETA, L, ALPHA = 1.0, 1.0, 0.05
    # Reported, not failed: the estimator cuts its fit window where the
    # excess variance falls below 5% of its start, which spans ln(20) ~ 3.0
    # e-folds, and flags low_confidence below 3 e-folds. On this workload
    # the flag is set on about half of all seeds whatever the estimate.
    NOTICE_FLAGS = ("low_confidence",)

    def __init__(self, workdir, seed, smoke):
        super().__init__(workdir, seed, smoke)
        self.sizes = (10, 20) if smoke else (50, 200)
        self.replicas = 4 if smoke else 16
        self.horizon = 2.0 if smoke else 13.0
        self.configs = {}
        for n in self.sizes:
            self.configs[n] = _ini(self.path(f"kernel-{n}.ini"), {
                "energy": {"type": "kernel", "eta": self.ETA, "l": self.L, "alpha": self.ALPHA},
                "system": {"n": n, "d": 1},
                "sim": {
                    "step": 0.05, "n_steps": round(self.horizon / 0.05), "burn_in": 0,
                    "replicas": self.replicas, "seed": self.sim_seed(), "sampler": "MALA",
                    "initial": "gaussian(3.0)",
                },
            })

    def warm_up(self):
        cfg = config.load_config(self.configs[self.sizes[0]])
        sim = dynamics.SimConfig(step=cfg.sim.step, n_steps=20, replicas=2, seed=cfg.sim.seed,
                                 initial=cfg.sim.initial)
        dynamics.run_chain(cfg.build_system(), sim, observables={"m2": mean_square})

    def _scan_point(self, n):
        cfg = config.load_config(self.configs[n])
        system = cfg.build_system()
        est = estimators.estimate_gap_variance_decay(system, cfg.sim, mean_square, self.horizon)
        k = bounds.kernel_example_constants(L=self.L, alpha=self.ALPHA, eta=self.ETA)
        bound = bounds.poincare_constant(
            bounds.PoincareInputs(k.rho_N, system.energy.declared_lambda, k.Mmm, n)
        )
        return {"rate": est.rate, "stderr": est.stderr, "flags": dict(est.flags), "bound": bound}

    def ops(self):
        return [(f"nscan.N{n}", lambda n=n: self._scan_point(n)) for n in self.sizes]

    def check(self, name, out, done):
        fails = self.same_as_first(name, out, ("rate", "stderr", "flags"))
        if not math.isfinite(out["rate"]):
            return fails + [f"gap estimate {out['rate']} is not finite"]
        if self.smoke:
            return fails
        for flag in self.NOTICE_FLAGS:
            if flag in out["flags"]:
                self.notices.add(f"{name}: gap estimate {out['rate']:.4f} flagged {flag}")
        flags = {k: v for k, v in out["flags"].items() if k not in self.NOTICE_FLAGS}
        if flags:
            fails.append(f"gap estimate flagged {flags}")
        if out["rate"] < out["bound"]:
            fails.append(f"gap estimate {out['rate']:.4f} below the theorem bound {out['bound']:.4f}")
        return fails

    def end_to_end(self, passes, chain_calls):
        n = self.sizes[-1]
        return {
            "chain_steps_per_s": [
                c["steps"] / c["seconds"] for c in chain_calls
                if c["N"] == n and c["replicas"] == self.replicas
            ],
            "nscan_s": [sum(p["ops"].values()) for p in passes],
        }

    def findings(self, table):
        op = f"op.nscan.N{self.sizes[-1]}"
        chain = table.busy("dynamics.chain", op)
        energy = table.busy("energies.eval", op) + table.busy("energies.grad", op)
        if not chain:
            return []
        return [
            f"N={self.sizes[-1]}: energies.eval + energies.grad = {energy:.3f} s of "
            f"dynamics.chain {chain:.3f} s ({energy / chain:.0%}, majority: {energy > chain / 2})"
        ]


class Oracles(Workload):
    name = "oracles"
    metrics = {
        "constants_quadratic_s": "s",
        "constants_parametrized_s": "s",
        "constants_kernel_s": "s",
        "verify_s": "s",
    }
    # config -> (energy section, extra analysis keys, expected exit code)
    CONFIGS = {
        "quadratic": ({"type": "quadratic", "a": 0.2}, {}, 0),
        "parametrized": ({"type": "parametrized", "a": 0.2}, {"grid_n": 401}, 0),
        "kernel": ({"type": "kernel", "eta": 1.0, "l": 1.0, "alpha": 0.05}, {}, 3),
    }
    AGREE_TOL = 1e-9

    def __init__(self, workdir, seed, smoke):
        super().__init__(workdir, seed, smoke)
        self.configs = {}
        for name, (energy, analysis, _) in self.CONFIGS.items():
            if smoke and "grid_n" in analysis:
                analysis = {"grid_n": 101}
            sections = {
                "energy": energy,
                "system": {"n": 50, "d": 1},
                "sim": {"seed": self.sim_seed()},
            }
            if analysis:
                sections["analysis"] = analysis
            self.configs[name] = _ini(self.path(f"{name}.ini"), sections)

    def warm_up(self):
        run_cli(["constants", "--config", self.configs["quadratic"],
                 "--out", self.path("warm.json")])

    def ops(self):
        def constants(name):
            out = self.path(f"constants-{name}.json")
            code, _ = run_cli(["constants", "--config", self.configs[name], "--out", out])
            return {"code": code, "json": out}

        def verify(suite):
            code, text = run_cli(["verify", suite])
            return {"code": code, "text": text}

        return [(f"constants.{c}", lambda c=c: constants(c)) for c in self.CONFIGS] + [
            (f"verify.{s}", lambda s=s: verify(s)) for s in SUITES
        ]

    def check(self, name, out, done):
        kind, which = name.split(".")
        expected = self.CONFIGS[which][2] if kind == "constants" else 0
        if out["code"] != expected:
            return [f"exit code {out['code']}, expected {expected}"]
        if kind == "verify":
            last = out["text"].strip().splitlines()[-1]
            return [] if last == f"suite {which}: PASS" else [f"summary line {last!r}"]
        with open(out["json"]) as fh:
            out["report"] = json.load(fh)["report"]
        out["sha256"] = _sha256(out["json"])
        fails = self.same_as_first(name, out, ("sha256",))
        if which == "parametrized" and "constants.quadratic" in done:
            fails += self._disagreements(done["constants.quadratic"]["report"], out["report"])
        return fails

    def _disagreements(self, quad: dict, par: dict) -> list[str]:
        fails = []
        for key in sorted(set(quad) | set(par)):
            a, b = quad.get(key), par.get(key)
            if isinstance(a, float) and isinstance(b, float):
                if not abs(a - b) <= self.AGREE_TOL:
                    fails.append(f"report {key}: quadratic {a!r} vs parametrized {b!r}")
            elif a != b:
                fails.append(f"report {key}: quadratic {a!r} vs parametrized {b!r}")
        return fails

    def end_to_end(self, passes, chain_calls):
        return {
            "constants_quadratic_s": _op_samples(passes, "constants.quadratic"),
            "constants_parametrized_s": _op_samples(passes, "constants.parametrized"),
            "constants_kernel_s": _op_samples(passes, "constants.kernel"),
            "verify_s": [
                sum(t for op, t in p["ops"].items() if op.startswith("verify.")) for p in passes
            ],
        }

    def findings(self, table):
        op = "op.constants.parametrized"
        total = table.busy(op)
        if not total:
            return []
        parts = table.breakdown(op)
        fixed = parts.get("spectral1d.fixed_point", 0.0)
        return [
            f"constants.parametrized: spectral1d.fixed_point {fixed:.3f} s of {total:.3f} s "
            f"({fixed / total:.0%}, largest layer: {max(parts, key=parts.get)})"
        ]


WORKLOADS = {w.name: w for w in (ChainLong, KernelReplicas, Oracles)}

