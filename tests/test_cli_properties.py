"""Property: a tiny valid config with one or two keys mutated, or with a key
of another energy type inserted, makes `constants`, `simulate` and
`estimate` exit 0, 2, 3 or 4, never with a traceback. Exit 1 means a failed
verification and 5 an unexpected error; neither may come from a bad input.
A config whose energy type does not take one of its [energy] keys exits 2.
A 400-digit integer in any numeric key, or in --seed or --replicas, is
checked the same way, key by key."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgibbs.cli import main

SIM = {
    "step": "0.1", "n_steps": "300", "burn_in": "50", "thin": "1", "replicas": "2",
    "seed": "1", "sampler": "MALA", "initial": "zeros",
}
ANALYSIS = {
    "epsilon": "0.5", "grid_lo": "-8", "grid_hi": "8", "grid_n": "201",
    "observable": "xbar", "max_lag": "20",
}
BASE = {
    "quadratic": {
        "energy": {"type": "quadratic", "a": "0.5"},
        "system": {"n": "4", "d": "1"},
        "sim": SIM,
        "analysis": ANALYSIS,
    },
    "kernel": {
        "energy": {"type": "kernel", "eta": "1.0", "l": "1.0", "alpha": "0.05", "v1_sup": "0.0"},
        "system": {"n": "5", "d": "2"},
        "sim": SIM,
        "analysis": ANALYSIS,
    },
}

#: [energy] keys each type takes besides `type`
ENERGY_KEYS = {
    "quadratic": {"a"},
    "parametrized": {"a", "feature_map"},
    "kernel": {"eta", "l", "alpha", "v1_sup"},
}

#: keys that size a run: an integer drawn for them stays at most this
SIZE_LIMITS = {"n": 5, "d": 2, "n_steps": 300, "replicas": 2, "grid_n": 201}

#: a decimal integer too large for a float, and for numpy to size an array
HUGE_INT = "1" + "0" * 400

POOL = [
    "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "0.5", "1.5", "1e-320", "1e308",
    "-1e308", "", "abc", "ULA", "MALA", "zeros", "gaussian", "gaussian(2.0)",
    "gaussian(1e308)", "gaussian(nan)", "xbar", "x1", "u_n", "kernel", "parametrized",
    "identity", HUGE_INT,
]

#: single-line text: a value that breaks the line is no longer one INI value
TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12)


def small_enough(key):
    def ok(value):
        if value is None or key not in SIZE_LIMITS:
            return True
        try:
            return int(value) <= SIZE_LIMITS[key]
        except ValueError:
            return True

    return ok


@st.composite
def mutated_config(draw):
    """(sections, [(section, key, value)]) with value None for a deleted key.
    A slot is a key of the base or, in [energy], a key another type takes."""
    base = BASE[draw(st.sampled_from(sorted(BASE)))]
    sections = {name: dict(keys) for name, keys in base.items()}
    slots = [(name, key) for name, keys in sections.items() for key in keys]
    slots += [("energy", key) for key in sorted(set().union(*ENERGY_KEYS.values()))
              if key not in sections["energy"]]
    mutations = []
    for name, key in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=2, unique=True)):
        value = draw(st.one_of(st.none(), st.sampled_from(POOL), TEXT).filter(small_enough(key)))
        mutations.append((name, key, value))
        if value is None:
            sections[name].pop(key, None)
        else:
            sections[name][key] = value
    return sections, mutations


def run_cli(sections, command, *flags):
    """(exit code, stdout and stderr) of `command` on the config of `sections`."""
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out"), *flags])
    return code, captured.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(config=mutated_config(), command=st.sampled_from(["constants", "simulate", "estimate"]))
def test_mutated_config_exits_with_a_documented_code(config, command):
    sections, mutations = config
    code, output = run_cli(sections, command)
    assert code in (0, 2, 3, 4), f"{command} {mutations}: exit {code}\n{output}"
    assert "Traceback" not in output, f"{command} {mutations}\n{output}"
    energy = sections["energy"]
    takes = ENERGY_KEYS.get(energy.get("type", "").strip(), set()) | {"type"}
    if any(key not in takes for key in energy):
        assert code == 2, f"{command} {mutations}: exit {code} with a foreign [energy] key"


#: (energy type, section, key) for every numeric key of every section, the
#: [energy] keys of each type included
NUMERIC_KEYS = [(t, "energy", k) for t in sorted(ENERGY_KEYS) for k in sorted(ENERGY_KEYS[t])
                if k != "feature_map"]
NUMERIC_KEYS += [("quadratic", section, key) for section, keys in (
    ("system", ["n", "d"]),
    ("sim", ["step", "n_steps", "burn_in", "thin", "replicas", "seed"]),
    ("analysis", ["epsilon", "grid_lo", "grid_hi", "grid_n", "max_lag"]),
) for key in keys]


def _huge_cases():
    for energy_type, section, key in NUMERIC_KEYS:
        yield pytest.param(energy_type, section, key, (), id=f"{energy_type}-{section}-{key}")
    for flag in ("--seed", "--replicas"):
        yield pytest.param("quadratic", None, None, (flag, HUGE_INT), id=f"flag{flag[1:]}")


@pytest.mark.parametrize("command", ["constants", "simulate", "estimate"])
@pytest.mark.parametrize("energy_type, section, key, flags", list(_huge_cases()))
def test_huge_integer_in_any_numeric_key_exits_with_a_documented_code(
    energy_type, section, key, flags, command
):
    base = BASE["kernel" if energy_type == "kernel" else "quadratic"]
    sections = {name: dict(keys) for name, keys in base.items()}
    sections["energy"]["type"] = energy_type
    if section is not None:
        sections[section][key] = HUGE_INT
    code, output = run_cli(sections, command, *flags)
    assert code in (0, 2, 3, 4), f"{command} {key or flags[0]}: exit {code}\n{output}"
    assert "Traceback" not in output, f"{command} {key or flags[0]}\n{output}"
