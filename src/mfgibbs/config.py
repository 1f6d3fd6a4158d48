"""Experiment configuration: a single INI-style file with key = value sections.

Unknown sections or keys are rejected so that a config fully determines a
run; every command output embeds the resolved values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field

from .dynamics import SimConfig, default_observables
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
            "sim": {**asdict(self.sim), "initial": str(self.sim.initial)},
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
    try:
        sim = SimConfig(
            step=float(sim_raw.get("step", 0.05)),
            n_steps=int(sim_raw.get("n_steps", 10000)),
            burn_in=int(sim_raw.get("burn_in", 0)),
            thin=int(sim_raw.get("thin", 1)),
            replicas=replicas if replicas is not None else int(sim_raw.get("replicas", 1)),
            seed=seed if seed is not None else int(sim_raw.get("seed", 0)),
            sampler=sim_raw.get("sampler", "MALA"),
            initial=_parse_initial(sim_raw.get("initial", "zeros")),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [sim] values: {exc}") from None
    analysis = dict(_DEFAULT_ANALYSIS)
    if "analysis" in parser:
        analysis.update({k: _coerce(v) for k, v in parser["analysis"].items()})
    out_path = parser["output"].get("path") if "output" in parser else None
    cfg = ExperimentConfig(energy_type, energy_params, N, d, sim, analysis, out_path)
    try:
        system = cfg.build_system()
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [energy] or [system] values: {exc}") from None
    _check_analysis(analysis, sorted(default_observables(system)))
    return cfg


def _parse_initial(text: str):
    """`zeros`, `gaussian` or `gaussian(scale)` with a finite scale."""
    if text == "zeros":
        return text
    if text == "gaussian":
        return ("gaussian", 1.0)
    if text.startswith("gaussian(") and text.endswith(")"):
        scale = float(text[len("gaussian(") : -1])
        if math.isfinite(scale):
            return ("gaussian", scale)
    raise ValueError(f"initial must be zeros, gaussian or gaussian(<finite scale>), got {text!r}")


def _check_analysis(an: dict, observables: list):
    def finite(key):
        return isinstance(an[key], (int, float)) and math.isfinite(an[key])

    for key, ok, rule in (
        ("epsilon", finite("epsilon") and 0 < an["epsilon"] < 1, "strictly inside (0, 1)"),
        ("grid_lo", finite("grid_lo") and finite("grid_hi") and an["grid_lo"] < an["grid_hi"],
         "finite and below a finite grid_hi"),
        ("grid_n", isinstance(an["grid_n"], int) and an["grid_n"] >= 3, "an integer >= 3"),
        ("max_lag", isinstance(an["max_lag"], int) and an["max_lag"] >= 1, "an integer >= 1"),
        ("observable", an["observable"] in observables, f"one of {observables}"),
    ):
        if not ok:
            raise ConfigError(f"[analysis] {key} must be {rule}, got {an[key]!r}")
