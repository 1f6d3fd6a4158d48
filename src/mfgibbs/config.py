"""Experiment configuration: a single INI-style file with key = value sections.

Unknown sections or keys are rejected so that a config fully determines a
run; every command output embeds the resolved values.

[energy] keys by type: quadratic `a`; parametrized `a`, `feature_map` (only
`identity`, the default); kernel `eta` (default 1.0), `l`, `alpha`, `v1_sup`
(defaults: `PairwiseKernelEnergy`'s). All but `feature_map` are numbers. Any
other key, another type's included, is a config error naming key and type.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from .dynamics import SimConfig, default_observables
from .energies import MeanFieldEnergy, PairwiseKernelEnergy, ParticleSystem
from .energies import QuadraticMeanEnergy, quadratic_as_parametrized

__all__ = ["ExperimentConfig", "ConfigError", "GRID_N_MAX", "load_config"]


class ConfigError(ValueError):
    pass


#: Largest [analysis] grid_n. The proximal-Gibbs fixed point runs up to 200
#: iterations on the grid and on its 2 grid_n - 1 refinement, each O(grid_n)
#: or, for the kernel energy's FFT pair sum, O(grid_n log grid_n); its fitted
#: steps take 8 of them for the kernel at L = 1, alpha = 0.05: about 0.04 s in
#: all at the cap. The cap dates from an O(grid_n^2) sum.
GRID_N_MAX = 10001

#: The most float64 entries numpy can size in one array.
_MAX_ENTRIES = sys.maxsize // 8

_DEFAULT_ANALYSIS = {
    "epsilon": 0.5,
    "grid_lo": -8.0,
    "grid_hi": 8.0,
    "grid_n": 1201,
    "observable": "xbar",
    "max_lag": 200,
}


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


#: [sim] key -> parser of its INI text. SimConfig holds the default of every
#: key but step and n_steps, which it requires.
_SIM_PARSERS = {
    "step": float, "n_steps": int, "burn_in": int, "thin": int, "replicas": int,
    "seed": int, "sampler": str, "initial": _parse_initial,
}
_SIM_REQUIRED = {"step": 0.05, "n_steps": 10000}

#: The keys of every section but [energy], whose keys depend on its type.
_KNOWN = {
    "system": {"n", "d"},
    "sim": set(_SIM_PARSERS),
    "analysis": set(_DEFAULT_ANALYSIS),
    "output": {"path"},
}


class _EnergyType(NamedTuple):
    """An [energy] type: its builder and its keys, each None (a number) or the one name it takes."""

    build: Callable
    keys: dict


def _kernel(p: dict) -> PairwiseKernelEnergy:
    # eta is required by the class; an unset l, alpha or v1_sup keeps its class default
    fields = {"L" if k == "l" else k: v for k, v in p.items()}
    return PairwiseKernelEnergy(**{"eta": 1.0, **fields})


#: The one owner of each [energy] type. `parametrized` is the quadratic-mean
#: energy in parametrized form.
_ENERGY_TYPES = {
    "quadratic": _EnergyType(lambda p: QuadraticMeanEnergy(p["a"]), {"a": None}),
    "kernel": _EnergyType(_kernel, dict.fromkeys(("eta", "l", "alpha", "v1_sup"))),
    "parametrized": _EnergyType(lambda p: quadratic_as_parametrized(p["a"]),
                                {"a": None, "feature_map": "identity"}),
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
        return _ENERGY_TYPES[self.energy_type].build(self.energy_params)

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
            number = cast(value)
        except ValueError:
            continue
        # an integer beyond the float range reads as the float inf, as 1e400
        # does, so that the range checks reject it rather than overflow
        return number if abs(number) <= sys.float_info.max else float(value)
    return value


def load_config(path, seed: int | None = None, replicas: int | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section != "energy" and section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if section in _KNOWN and key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if "energy" not in parser or "type" not in parser["energy"]:
        raise ConfigError("missing [energy] type")
    energy_type = parser["energy"]["type"]
    if energy_type not in _ENERGY_TYPES:
        raise ConfigError(f"unknown energy type {energy_type!r}")
    row = _ENERGY_TYPES[energy_type]
    energy_params = {k: _coerce(v) for k, v in parser["energy"].items() if k != "type"}
    for key, value in energy_params.items():
        if key not in row.keys:
            only = ", ".join(row.keys)
            raise ConfigError(f"[energy] type {energy_type} takes no key {key!r}, only {only}")
        if row.keys[key] is None and isinstance(value, str):
            raise ConfigError(f"[energy] {key} must be a number, got {value!r}")
        if row.keys[key] not in (None, value):
            raise ConfigError(f"[energy] {key} must be {row.keys[key]}, got {value!r}")
    if "system" not in parser:
        raise ConfigError("missing [system] section")
    try:
        N = int(parser["system"].get("n"))
        d = int(parser["system"].get("d", "1"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [system] values: {exc}") from None
    sim_raw = dict(parser["sim"]) if "sim" in parser else {}
    # an override replaces its INI value unparsed
    overrides = {k: v for k, v in (("seed", seed), ("replicas", replicas)) if v is not None}
    try:
        parsed = {k: _SIM_PARSERS[k](v) for k, v in sim_raw.items() if k not in overrides}
        sim = SimConfig(**{**_SIM_REQUIRED, **parsed, **overrides})
    except ValueError as exc:
        raise ConfigError(f"bad [sim] values: {exc}") from None
    _check_sizes(N, d, sim)
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


def _check_sizes(N: int, d: int, sim: SimConfig):
    """Reject, before any is allocated, an array numpy cannot size: a
    configuration (n, d) or the recorded values (replicas, records), with
    records the length of `sim.record_steps()`."""
    records = (sim.n_steps - sim.burn_in - 1) // sim.thin + 1
    for name, entries in (
        ("[system] n * d", N * d),
        ("[sim] replicas * (n_steps - burn_in) / thin", sim.replicas * records),
    ):
        if entries > _MAX_ENTRIES:
            raise ConfigError(
                f"{name} must be at most {_MAX_ENTRIES}, the most entries numpy can size"
            )


def _check_analysis(an: dict, observables: list):
    def finite(key):
        return isinstance(an[key], (int, float)) and math.isfinite(an[key])

    for key, ok, rule in (
        ("epsilon", finite("epsilon") and 0 < an["epsilon"] < 1, "strictly inside (0, 1)"),
        ("grid_hi", finite("grid_hi"), "finite"),
        ("grid_lo", finite("grid_lo") and finite("grid_hi") and an["grid_lo"] < an["grid_hi"],
         "finite and below grid_hi"),
        ("grid_n", isinstance(an["grid_n"], int) and 3 <= an["grid_n"] <= GRID_N_MAX,
         f"an integer in [3, {GRID_N_MAX}]"),
        ("max_lag", isinstance(an["max_lag"], int) and an["max_lag"] >= 1, "an integer >= 1"),
        ("observable", an["observable"] in observables, f"one of {observables}"),
    ):
        if not ok:
            raise ConfigError(f"[analysis] {key} must be {rule}, got {an[key]!r}")
