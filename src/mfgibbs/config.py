"""Experiment configuration: a single INI-style file with key = value sections.

Unknown sections or keys are rejected so that a config fully determines a
run; every command output embeds the resolved values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .dynamics import SimConfig
from .energies import MeanFieldEnergy, PairwiseKernelEnergy, ParticleSystem
from .energies import QuadraticMeanEnergy, quadratic_as_parametrized

__all__ = ["ExperimentConfig", "ConfigError", "load_config"]


class ConfigError(ValueError):
    pass


_KNOWN = {
    "energy": {"type", "a", "l", "alpha", "eta", "v1_sup", "feature_map"},
    "system": {"n", "d"},
    "sim": {"step", "n_steps", "burn_in", "thin", "replicas", "seed", "sampler", "initial"},
    "analysis": {"epsilon", "grid_lo", "grid_hi", "grid_n", "observable", "max_lag"},
    "output": {"path"},
}

_DEFAULT_ANALYSIS = {
    "epsilon": 0.5,
    "grid_lo": -8.0,
    "grid_hi": 8.0,
    "grid_n": 1201,
    "observable": "xbar",
    "max_lag": 200,
}


@dataclass
class ExperimentConfig:
    energy_type: str
    energy_params: dict
    N: int
    d: int
    sim: SimConfig
    analysis: dict = field(default_factory=dict)
    out_path: str | None = None

    def build_energy(self) -> MeanFieldEnergy:
        p = self.energy_params
        if self.energy_type == "quadratic":
            return QuadraticMeanEnergy(p["a"])
        if self.energy_type == "kernel":
            return PairwiseKernelEnergy(
                eta=p.get("eta", 1.0), L=p.get("l", 0.0), alpha=p.get("alpha", 0.0),
                v1_sup=p.get("v1_sup", 0.0),
            )
        if self.energy_type == "parametrized":
            if p.get("feature_map", "identity") != "identity":
                raise ConfigError("only the identity feature map is configurable")
            return quadratic_as_parametrized(p["a"])
        raise ConfigError(f"unknown energy type {self.energy_type!r}")

    def build_system(self) -> ParticleSystem:
        return ParticleSystem(self.build_energy(), self.N, self.d)

    def resolved(self) -> dict:
        return {
            "energy": {"type": self.energy_type, **self.energy_params},
            "system": {"n": self.N, "d": self.d},
            "sim": {
                "step": self.sim.step,
                "n_steps": self.sim.n_steps,
                "burn_in": self.sim.burn_in,
                "thin": self.sim.thin,
                "replicas": self.sim.replicas,
                "seed": self.sim.seed,
                "sampler": self.sim.sampler,
                "initial": str(self.sim.initial),
            },
            "analysis": dict(self.analysis),
        }


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def load_config(path, seed: int | None = None, replicas: int | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if "energy" not in parser or "type" not in parser["energy"]:
        raise ConfigError("missing [energy] type")
    energy_type = parser["energy"]["type"]
    energy_params = {
        k: _coerce(v) for k, v in parser["energy"].items() if k != "type"
    }
    if "system" not in parser:
        raise ConfigError("missing [system] section")
    try:
        N = int(parser["system"].get("n"))
        d = int(parser["system"].get("d", "1"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [system] values: {exc}") from None
    sim_raw = dict(parser["sim"]) if "sim" in parser else {}
    initial = sim_raw.get("initial", "zeros")
    if initial.startswith("gaussian"):
        scale = 1.0
        if "(" in initial:
            scale = float(initial.split("(")[1].rstrip(")"))
        initial = ("gaussian", scale)
    try:
        sim = SimConfig(
            step=float(sim_raw.get("step", 0.05)),
            n_steps=int(sim_raw.get("n_steps", 10000)),
            burn_in=int(sim_raw.get("burn_in", 0)),
            thin=int(sim_raw.get("thin", 1)),
            replicas=replicas if replicas is not None else int(sim_raw.get("replicas", 1)),
            seed=seed if seed is not None else int(sim_raw.get("seed", 0)),
            sampler=sim_raw.get("sampler", "MALA"),
            initial=initial,
        )
    except ValueError as exc:
        raise ConfigError(f"bad [sim] values: {exc}") from None
    analysis = dict(_DEFAULT_ANALYSIS)
    if "analysis" in parser:
        analysis.update({k: _coerce(v) for k, v in parser["analysis"].items()})
    eps = analysis["epsilon"]
    if not (isinstance(eps, (int, float)) and 0 < eps < 1):  # NaN fails too
        raise ConfigError(f"[analysis] epsilon must lie strictly inside (0, 1), got {eps!r}")
    out_path = parser["output"].get("path") if "output" in parser else None
    cfg = ExperimentConfig(
        energy_type=energy_type,
        energy_params=energy_params,
        N=N,
        d=d,
        sim=sim,
        analysis=analysis,
        out_path=out_path,
    )
    try:
        cfg.build_energy()
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [energy] parameters: {exc}") from None
    return cfg
