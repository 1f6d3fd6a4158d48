"""Property: a tiny valid config with one or two keys mutated, or with a key
of another energy type inserted, makes `constants`, `simulate` and
`estimate` exit 0, 2, 3 or 4, never with a traceback. Exit 1 means a failed
verification and 5 an unexpected error; neither may come from a bad input.
A config whose energy type does not take one of its [energy] keys exits 2."""

import contextlib
import io
import os
import tempfile

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

POOL = [
    "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "0.5", "1.5", "1e-320", "1e308",
    "-1e308", "", "abc", "ULA", "MALA", "zeros", "gaussian", "gaussian(2.0)",
    "gaussian(1e308)", "gaussian(nan)", "xbar", "x1", "u_n", "kernel", "parametrized",
    "identity", "1" + "0" * 400,
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
    """(INI text, [(section, key, value)], final [energy] section) with value
    None for a deleted key. A slot is a key of the base or, in [energy], a key
    another type takes."""
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
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    return text, mutations, sections["energy"]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(config=mutated_config(), command=st.sampled_from(["constants", "simulate", "estimate"]))
def test_mutated_config_exits_with_a_documented_code(config, command):
    text, mutations, energy = config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    output = captured.getvalue()
    assert code in (0, 2, 3, 4), f"{command} {mutations}: exit {code}\n{output}"
    assert "Traceback" not in output, f"{command} {mutations}\n{output}"
    takes = ENERGY_KEYS.get(energy.get("type", "").strip(), set()) | {"type"}
    if any(key not in takes for key in energy):
        assert code == 2, f"{command} {mutations}: exit {code} with a foreign [energy] key"
