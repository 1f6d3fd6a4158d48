"""Command-line front end: `constants`, `verify`, `simulate`, `estimate`.

Exit codes: 0 success, 1 verification failure, 2 config error (or a run too
large for memory), 3 theorem inapplicable (or no Gibbs measure), 4 numerical
blow-up (a diverging chain, or a floating-point overflow or NaN) or a frozen
chain, 5 an unexpected internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, bounds, verify
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import default_observables, run_chain
from .errors import BlowUpError, GibbsUndefinedError, TheoremInvalidError
from .estimators import estimate_gap_autocorr
from .spectral1d import boundary_negligible, end_density_ratio, proximal_gibbs_fixed_point

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_INAPPLICABLE = 3
EXIT_BLOWUP = 4
EXIT_INTERNAL = 5


def _temp_beside(path: str) -> str:
    """A new empty file next to `path`; an OSError naming `path` if it cannot be written."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-mfgibbs-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    os.close(fd)
    return tmp


@contextlib.contextmanager
def _atomic_path(path: str):
    """Yield a temporary path next to `path`; it replaces `path` when the
    block succeeds and is removed when it fails."""
    tmp = _temp_beside(path)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str):
    with _atomic_path(path) as tmp, open(tmp, "w") as fh:
        fh.write(text)


def _emit(payload: dict, out_path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _wrap(cfg: ExperimentConfig, body: dict) -> dict:
    return {"version": __version__, "config": cfg.resolved(), **body}


def _stationary_variance(cfg: ExperimentConfig, energy) -> tuple[float, dict]:
    """Var(phi) under the proximal-Gibbs fixed point of the energy on the
    analysis grid, with the fixed point's diagnostics; TheoremInvalidError
    when that fixed point cannot be trusted, as at d >= 2 on its 1-D grid."""
    if cfg.d != 1:
        raise TheoremInvalidError(
            f"fixed-point-untrusted: Var(phi) comes from a fixed point on a 1-D grid, "
            f"but [system] d = {cfg.d}"
        )
    an = cfg.analysis
    fp = proximal_gibbs_fixed_point(energy, an["grid_lo"], an["grid_hi"], an["grid_n"])
    ends_ok, ends = boundary_negligible(fp.density), end_density_ratio(fp.density)
    if not (fp.converged and fp.grid_converged and ends_ok):
        raise TheoremInvalidError(
            f"fixed-point-untrusted: converged={fp.converged} (residual {fp.residual:.3g}, "
            f"{fp.iterations} iterations), relative change of Var(phi) under grid "
            f"refinement {fp.refinement_change:.3g}, negligible density at the grid "
            f"ends={ends_ok} (end density ratio {ends:.3g})"
        )
    diagnostics = ("residual", "iterations", "refinement_change")
    return fp.variance(), {**{key: getattr(fp, key) for key in diagnostics},
                           "end_density_ratio": ends}


def cmd_constants(cfg: ExperimentConfig, out_path: str | None) -> int:
    energy = cfg.build_energy()
    try:
        energy.declared_rho_N(cfg.N)  # no Gibbs measure: exit 3 before the fixed point
        var_phi, fixed_point = _stationary_variance(cfg, energy)
        eps = cfg.analysis["epsilon"]
        report, extras = bounds.corollary_report(energy, cfg.N, cfg.d, var_phi, eps)
    except (GibbsUndefinedError, TheoremInvalidError) as exc:
        _emit({"version": __version__, "error": str(exc)}, out_path)
        return EXIT_INAPPLICABLE
    body = {"report": report.to_dict(), "example": extras, "fixed_point": fixed_point}
    _emit(_wrap(cfg, body), out_path)
    if not report.flags.get("corollary_valid", False):
        return EXIT_INAPPLICABLE
    return EXIT_OK


def cmd_verify(suite: str) -> int:
    # only the name is a config error: a KeyError inside a suite is an internal one
    if suite not in verify.SUITES:
        print(f"config error: unknown suite {suite!r}; choose from {sorted(verify.SUITES)}",
              file=sys.stderr)
        return EXIT_CONFIG
    results = verify.SUITES[suite]()
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        all_ok &= ok
    print(f"suite {suite}: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_simulate(cfg: ExperimentConfig, path: str | None) -> int:
    if not path:
        raise ConfigError("simulate needs an output path (--out or [output] path)")
    system = cfg.build_system()
    system.energy.declared_rho_N(cfg.N)  # no Gibbs measure: exit 3 before the chain
    with _atomic_path(path) as tmp:  # opened first: an unwritable path fails before the chain
        traj = run_chain(system, cfg.sim)
        traj.to_csv(tmp)
    rates = [None if np.isnan(r) else r for r in traj.acceptance_rates]
    _emit(_wrap(cfg, {"acceptance_rates": rates}), path + ".meta.json")
    return EXIT_OK


def cmd_estimate(cfg: ExperimentConfig, out_path: str | None) -> int:
    system = cfg.build_system()
    max_lag = cfg.analysis["max_lag"]
    if len(cfg.sim.record_steps()) <= max_lag:
        raise ConfigError("trajectory too short for the requested max_lag")
    system.energy.declared_rho_N(cfg.N)  # no Gibbs measure: exit 3 before the chain
    if out_path:  # an unwritable path fails before the chain; a frozen one writes nothing
        os.unlink(_temp_beside(out_path))
    observable = cfg.analysis["observable"]
    traj = run_chain(system, cfg.sim, {observable: default_observables(system)[observable]})
    try:
        est = estimate_gap_autocorr(traj, observable, max_lag)
    except ValueError as exc:
        # a chain that never moved, e.g. MALA rejecting every proposal
        print(f"frozen chain: {exc} {observable!r}, no gap to estimate", file=sys.stderr)
        return EXIT_BLOWUP
    payload = _wrap(cfg, {"estimate": est.to_dict()})
    _emit(payload, out_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgibbs",
        description="Mean-field Gibbs measures: theorem constants, samplers, "
        "and numerical verification of Poincare/log-Sobolev bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output path (default: [output] path)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--replicas", type=int, default=None, help="override replica count")

    common(sub.add_parser("constants", help="compute the theorem constants report"))
    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=sorted(verify.SUITES))
    common(sub.add_parser("simulate", help="sample the Gibbs measure, write CSV"))
    common(sub.add_parser("estimate", help="estimate the spectral gap from a chain"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):  # an overflow or a NaN is a blow-up
            if args.command == "verify":
                return cmd_verify(args.suite)
            cfg = load_config(args.config, seed=args.seed, replicas=args.replicas)
            run = {"constants": cmd_constants, "simulate": cmd_simulate, "estimate": cmd_estimate}
            # the output goes to --out, else to [output] path, else to stdout
            return run[args.command](cfg, args.out or cfg.out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # configparser skips an unreadable config: only an output raises
        print(f"config error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size the config asks for that memory cannot hold
        detail = " ".join(str(exc).split())
        print(f"config error: the run does not fit in memory: {detail}", file=sys.stderr)
        return EXIT_CONFIG
    except (GibbsUndefinedError, TheoremInvalidError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (BlowUpError, FloatingPointError) as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except Exception as exc:  # 1 keeps meaning "verification failed"
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
