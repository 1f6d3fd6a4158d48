"""mfgibbs benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload chain-long --seed 1 --seconds 30 --trace 0

Runs as many passes of the workload as fit in --seconds (at least two, so
that repeats can be compared byte for byte), checks every output, prints one
`end_to_end` / `per_layer` line per metric with its unit and sample count,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The JSON carries the metrics listed in BENCHMARK.json; the lines before it
carry every metric. Timings are medians over the run's passes.

While a run measures, fixed reference kernels (reference.py) sample the
machine's speed every 0.1 s of wall time. norm_wall_s, the gated pass time,
is a pass's time multiplied by the machine's mean speed relative to nominal
over that pass, so that the shared machine's drift in speed cancels; wall_s
is the raw pass time. setup_s and setup_wall_s are the same pair for the
set-up. No time includes the samples themselves.

--trace 0 measures with tracing off. --trace 1 alternates untraced and
traced passes; the traced passes wrap every mfgibbs layer (see spans.py) and
give the per-layer metrics, and the difference of the two pass kinds' median
wall times is trace.overhead_s. Spans of each traced pass are written to
.perfbench/spans/ when the run ends; the full result with its environment
stamp goes to .perfbench/results/.

--smoke shrinks every workload to a few seconds and skips the statistical
output checks; perfbench/test_smoke.py runs it.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported, here and in the set-up
# probes this process starts (they inherit the environment).
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4  # fresh-interpreter set-ups per run, beside this process's own
# A set-up lasts under a second, so the machine's speed is sampled more often
# during it than during the passes.
SETUP_SAMPLE_EVERY_S = 0.05
MIN_PASSES = 2


def percentile_summary(samples: list[float]) -> dict:
    """Median, sample count and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it; the samples themselves go to the result file."""
    out = {"value": statistics.median(samples), "n": len(samples), "samples": samples}
    for q in (0.999, 0.99, 0.9):
        if len(samples) * (1.0 - q) >= 10:
            ranked = sorted(samples)
            out[f"p{q * 100:g}"] = ranked[min(len(ranked) - 1, math.ceil(q * len(ranked)) - 1)]
            break
    return out


def load_program():
    """Import mfgibbs from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import mfgibbs

    if Path(mfgibbs.__file__).resolve().parent != SRC / "mfgibbs":
        raise SystemExit(f"benchmark: imported mfgibbs from {mfgibbs.__file__}, not {SRC}")


def set_up(args, workdir):
    """Import the program, generate the inputs from the seed, warm up once.

    Returns the workload, the set-up's wall time and that time normalized
    by the machine's speed, sampled during the set-up once numpy is
    imported."""
    t0 = time.perf_counter()
    import reference

    with reference.Sampler(SETUP_SAMPLE_EVERY_S) as sampler:
        load_program()
        import workloads

        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, args.smoke)
        workload.warm_up()
    wall = time.perf_counter() - t0 - sampler.spent
    return workload, wall, wall * reference.speed(sampler.samples or [reference.run()])


def probe_setup(args) -> dict:
    """set_up() in a fresh interpreter, timed there; the process is waited for."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the layout of numpy's build info is not stable
        blas = f"unknown ({exc.__class__.__name__})"
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha or "not a git checkout",
        "seed": seed,
    }


def fits(t0: float, durations: list[float], seconds: float) -> bool:
    """Whether one more pass of median length ends within `seconds` of t0."""
    return time.perf_counter() - t0 + statistics.median(durations) <= seconds


class Runner:
    """Runs passes of one workload, checks them and keeps their timings."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed operation
        self.problems: list[str] = []  # trace integrity, not tied to one operation
        self.chain_calls: list[dict] = []

    def run_pass(self, tracer=None, sampler=None) -> dict:
        """One pass; with a sampler running, each operation's time excludes
        the samples taken during it, and the pass gets a normalized time."""
        import spans

        def clock():  # wall time, less the time spent taking samples
            return time.perf_counter() - (sampler.spent if sampler else 0.0)

        start = time.perf_counter()
        times, done = {}, {}
        first = len(sampler.samples) if sampler else 0
        with spans.chain_timer(self.chain_calls):
            for name, fn in self.workload.ops():
                self.attempted += 1
                t0 = clock()
                try:
                    out = tracer.span(f"op.{name}", fn) if tracer else fn()
                except Exception:
                    self.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
                    out = None
                times[name] = clock() - t0
                if out is not None:
                    done[name] = out
        wall = sum(times.values())
        result = {"wall": wall, "ops": times}
        if sampler:
            import reference

            speed = reference.speed(sampler.samples[first:] or [reference.run()])
            result.update(norm=wall * speed, speed=speed, sample_range=(first, len(sampler.samples)))
        # checks run after the timed pass
        for name, out in done.items():
            try:
                fails = self.workload.check(name, out, done)
            except Exception:
                fails = [traceback.format_exc(limit=3)]
            if fails:
                self.failures.append(f"{name}: " + "; ".join(fails))
        result["elapsed"] = time.perf_counter() - start
        return result


def measure(args, workload) -> dict:
    """--trace 0: end-to-end metrics, tracing off, machine speed sampled."""
    import reference

    runner = Runner(workload)
    passes = []
    t0 = time.perf_counter()
    with reference.Sampler() as sampler:
        while len(passes) < MIN_PASSES or fits(t0, [p["elapsed"] for p in passes], args.seconds):
            passes.append(runner.run_pass(sampler=sampler))
    samples = workload.end_to_end(passes, runner.chain_calls)
    samples["wall_s"] = [p["wall"] for p in passes]
    samples["norm_wall_s"] = [p["norm"] for p in passes]
    metrics = {name: percentile_summary(v) for name, v in samples.items() if v}
    return {"runner": runner, "metrics": metrics, "passes": len(passes),
            "speed": percentile_summary([p["speed"] for p in passes]), "pass_detail": passes,
            "reference_samples": sampler.samples}


def measure_traced(args, workload) -> dict:
    """--trace 1: per-layer metrics from traced passes, alternated with
    untraced passes for the overhead."""
    import spans

    runner = Runner(workload)
    plain, traced, tracers, per_pass, elapsed = [], [], [], [], []
    t0 = time.perf_counter()
    while not traced or fits(t0, elapsed, args.seconds):
        untraced = runner.run_pass()
        with spans.tracing() as tracer:
            done = runner.run_pass(tracer)
        plain.append(untraced["wall"])
        traced.append(done["wall"])
        elapsed.append(untraced["elapsed"] + done["elapsed"])
        tracers.append(tracer)
        table = spans.SpanTable(tracer)
        per_pass.append(table.layer_metrics())
        bad = table.nesting_violations()
        if bad:
            runner.problems.append(f"trace: {bad} spans exceed their parent in pass {len(traced)}")
    spans.save(tracers, OUT / "spans" / f"{args.workload}-seed{args.seed}.npz")
    metrics = {}
    for name, unit in spans.LAYER_METRICS.items():
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_pass]
        value = statistics.median(values)
        if unit in spans.COUNT_UNITS:
            if len(set(values)) != 1:
                runner.problems.append(f"trace: count {name} differs between passes: {values}")
            value = values[0]
        metrics[name] = {"value": value, "n": len(values)}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain),
        "n": len(traced),
    }
    findings = workload.findings(table)  # from the last traced pass
    for op in sorted(nm for nm in table.names if nm.startswith("op.")):
        parts = sorted(table.breakdown(op).items(), key=lambda kv: -kv[1])[:6]
        findings.append(
            f"{op} {table.busy(op):.3f} s: " + ", ".join(f"{nm} {t:.3f}" for nm, t in parts)
        )
    return {"runner": runner, "metrics": metrics, "passes": len(plain) + len(traced),
            "findings": findings}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain-long", "kernel-replicas", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and exit (used by the probes)")
    args = parser.parse_args(argv)

    if not (SRC / "mfgibbs" / "__init__.py").is_file():
        print(f"benchmark: no mfgibbs sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    # SIGTERM unwinds like an exception, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload, setup_wall, setup_norm = set_up(args, workdir)
        if args.setup_only:
            print(json.dumps({"wall": setup_wall, "norm": setup_norm}))
            return 0
        import spans
        import workloads

        env = environment(args.seed)
        if args.trace:
            result = measure_traced(args, workload)
            units = dict(spans.LAYER_METRICS)
            kind, gated = "per_layer", spec["per_layer"]
        else:
            probes = [probe_setup(args) for _ in range(0 if args.smoke else SETUP_PROBES)]
            result = measure(args, workload)
            setups = [{"wall": setup_wall, "norm": setup_norm}] + probes
            result["metrics"]["setup_s"] = percentile_summary([x["norm"] for x in setups])
            result["metrics"]["setup_wall_s"] = percentile_summary([x["wall"] for x in setups])
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"]["peak_rss_mb"] = {"value": rss_kb / 1024.0, "n": 1}
            units = {**workloads.COMMON_METRICS, **workload.metrics}
            kind, gated = "end_to_end", spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runner, metrics = result["runner"], result["metrics"]
    failed = len(runner.failures)
    attempted = max(runner.attempted, 1)
    metrics["failed_ratio"] = {"value": failed / attempted, "n": attempted}
    units["failed_ratio"] = "ratio"

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} passes={result['passes']} smoke={args.smoke}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if "speed" in result:
        print(f"# machine speed {result['speed']['value']:.4f} of nominal, median of "
              f"{result['speed']['n']} passes over {len(result['reference_samples'])} samples")
    for name, unit in units.items():
        m = metrics[name]
        extra = "".join(f" {k}={v:.6g}" for k, v in m.items() if k.startswith("p9"))
        if name == "failed_ratio":
            extra += f" ops_attempted={attempted} ops_failed={failed}"
        print(f"{kind} {name} {m['value']!r} {unit} n={m['n']}{extra}")
    for line in result.get("findings", []):
        print(f"# finding {line}")
    for notice in sorted(workload.notices):
        print(f"# notice {notice}")
    for failure in runner.failures + runner.problems:
        print(f"# FAILED {failure}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke, "env": env,
              "metrics": {n: {**metrics[n], "unit": u} for n, u in units.items()},
              "failures": runner.failures + runner.problems, "findings": result.get("findings", []),
              "notices": sorted(workload.notices), "speed": result.get("speed"),
              "passes": result.get("pass_detail"),
              "reference_samples": result.get("reference_samples")}
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0 and not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
