"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep-V,sweep-I,closed-form} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` and
every output goes under ``.perfbench-out/``.  All load comes from this
one process, calling ``fracture1d.cli.main`` in-process, with BLAS and
OpenMP pinned to one thread.

A pass is a workload's fixed list of commands; it is never cut short,
so a run makes at least one pass and starts another only while that one
is expected to finish within ``--seconds``.  Each pass's outputs are
checked after it, untimed; an op that fails a check counts in ``failed``
and the run goes on.

``--trace 0`` reports the end-to-end metrics; its passes run under the
speed probe of ``probe.py``, so their times are normalized seconds, and
the measured ones are printed beside them.  ``--trace 1`` alternates
traced and untraced passes, then times the kernels, and reports the
per-layer metrics.  The last line of standard output is the result as
one JSON object; the lines before it, starting with ``#``, give the
environment, the sample counts and the same metrics for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# Only the standard library is imported up to here, so the thread pinning
# in main() and the timed set-up both come before numpy is loaded.
from perfbench import setup_probe  # noqa: E402

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("sweep-V", "sweep-I", "closed-form")
SETUP_PROBES = 10  # fresh interpreters; setup_s is the median over them
# A run may take 180 s.  A traced run skips its untraced reference pass
# rather than cross this.
SAFE_RUN_S = 150.0

E2E = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("rescaled_energy_final", "1"),
    ("rescaled_energy_mean", "1"),
)

# Span name -> the fields reported for it, per traced pass.
SPAN_FIELDS = (
    ("regularized.project_h", ("calls", "busy_s")),
    ("regularized.isotonic_regression", ("calls", "busy_s")),
    ("regularized.project_H", ("calls", "busy_s")),
    ("regularized.minimize", ("calls", "busy_s", "self_s")),
    ("regularized.mollify_sharp_candidate", ("busy_s",)),
    ("regularized.mm_lower_bound", ("busy_s",)),
    ("material.wstar", ("calls",)),
    ("material.wstar_prime", ("calls",)),
    ("material.c_wstar", ("calls", "busy_s")),
    ("material.resolve_model", ("calls", "busy_s")),
    ("sharp.build_sharp_minimizer", ("calls", "busy_s")),
    ("sharp.reconstruct_deformation", ("busy_s",)),
    ("harness.crack_scan", ("busy_s",)),
    ("harness.sweep", ("busy_s", "self_s")),
    ("serialize.write", ("busy_s",)),
    ("serialize.parse_field", ("busy_s",)),
    ("cli.main", ("self_s",)),
)


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    from perfbench.kernels import metric_names
    from perfbench.tracing import LAYERS

    spec = [
        (f"{span}.{field}", "count" if field == "calls" else "s")
        for span, fields in SPAN_FIELDS
        for field in fields
    ]
    spec += [
        ("regularized.proj_per_grad", "1"),
        ("serialize.bytes_written", "B"),
        ("unconverged_frac", "1"),
    ]
    spec += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    spec += [(name, "us") for name in metric_names()]
    spec += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_frac", "1"),
        ("trace.wrapper_overhead_frac", "1"),
        ("trace.unaccounted_frac", "1"),
        ("trace.spans", "count"),
    ]
    return spec


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _probe_setup(out: Path) -> tuple[float, float]:
    """Set-up seconds in a fresh interpreter, and its reference import's seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(setup_probe.__file__)), str(ROOT), str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, probe = proc.stdout.split()
    return float(seconds), float(probe)


def _command_output(argv) -> str:
    # The ceiling keeps git from reporting a repository that merely encloses ROOT.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout if proc.returncode == 0 else ""


def environment(seed: int) -> dict:
    import numpy

    caches = [
        " ".join(line.split())
        for line in _command_output(["lscpu"]).splitlines()
        if "cache" in line.lower()
    ]
    return {
        "git_revision": _command_output(["git", "rev-parse", "HEAD"]).strip() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "caches": caches,
        "seed": seed,
    }


def run_pass(cli, ops, probe=None) -> tuple[list[float], list]:
    """Run each op through ``cli.main``; return latencies and results.

    Time the active ``probe`` spent inside an op is not part of its latency.
    """
    from perfbench.workloads import OpResult

    latencies, results = [], []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            probed = probe.busy if probe else 0.0
            t0 = perf_counter()
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing op is a failed op, not a failed run
                code = None
                traceback.print_exc()
            elapsed = perf_counter() - t0
            latencies.append(elapsed - ((probe.busy - probed) if probe else 0.0))
        results.append(OpResult(code, out.getvalue(), err.getvalue()))
    return latencies, results


class Runner:
    """Passes of one workload, with their checks and counts."""

    def __init__(self, workload, seed: int, out: Path, tracer=None, probe=None):
        """``tracer`` records traced passes; ``probe`` (a ``SpeedProbe``
        class) normalizes the timed untraced ones."""
        from fracture1d import cli

        self.cli = cli
        self.workload = workload
        self.pass_dir = out / "pass"
        self.ops = workload.ops(seed, self.pass_dir)
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []
        self.walls = {False: [], True: []}  # traced? -> pass durations
        self.latencies: list[list[float]] = []  # per timed untraced pass
        self.raw_walls: list[float] = []  # untraced passes in measured seconds
        self.probe_s: list[float] = []  # mean probe duration per untraced pass
        self.quality: dict = {}
        self.bytes_written = 0

    def do_pass(self, traced: bool = False, timed: bool = True) -> float:
        """One pass; returns its elapsed time, checks included."""
        t_start = perf_counter()
        # Passes overwrite the outputs of the one before: creating hundreds of
        # files anew costs kernel time that drifts more than the CLI's own work.
        # The run's first pass writes into an empty directory, so an op that
        # stops writing its outputs fails its checks there.
        self.pass_dir.mkdir(parents=True, exist_ok=True)
        probe = self.probe() if self.probe and timed else None
        undo = None
        if traced:
            self.tracer.run_id = len(self.walls[True])
            undo = self.tracer.install()
        try:
            with probe or contextlib.nullcontext():
                latencies, results = run_pass(self.cli, self.ops, probe)
        finally:
            if undo is not None:
                undo()
        if probe is not None:
            self.raw_walls.append(sum(latencies))
            self.probe_s.append(probe.warm / probe.count)
            latencies = [t * probe.factor() for t in latencies]
        failures, self.quality = self.workload.check(self.ops, results, self.pass_dir)
        self.attempted += len(self.ops)
        self.failures += [f for f in failures if f is not None]
        self.bytes_written = sum(p.stat().st_size for p in self.pass_dir.rglob("*") if p.is_file())
        if timed:
            self.walls[traced].append(sum(latencies))
            if not traced:
                self.latencies.append(latencies)
        return perf_counter() - t_start


def _untraced(runner: Runner, deadline: float) -> None:
    while True:
        elapsed = runner.do_pass()
        if perf_counter() + elapsed > deadline:
            return


def _traced(runner: Runner, deadline: float, run_start: float) -> None:
    """Traced and untraced passes in turn, the traced one first."""
    traced = True
    while True:
        elapsed = runner.do_pass(traced=traced)
        next_end = perf_counter() + elapsed
        if runner.walls[False] and runner.walls[True]:
            if next_end > deadline:
                return
        elif next_end > run_start + SAFE_RUN_S:
            return
        traced = not traced


def end_to_end_metrics(runner: Runner, setup_samples: list[float]) -> dict[str, float]:
    """``setup_samples`` are normalized set-up times.

    The p99 is each pass's own, then the median over passes: one burst of
    host contention then moves one pass, not the run's figure.
    """
    p50, _ = percentile([t for latencies in runner.latencies for t in latencies], 50)
    p99 = statistics.median(percentile(latencies, 99)[0] for latencies in runner.latencies)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(runner.walls[False]),
        "op_ms_p50": p50 * 1e3,
        "op_ms_p99": p99 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rescaled_energy_final": runner.quality.get("rescaled_energy_final", 0.0),
        "rescaled_energy_mean": runner.quality.get("rescaled_energy_mean", 0.0),
    }


def per_layer_metrics(runner: Runner, kernel_us: dict[str, float]) -> tuple[dict[str, float], list[str | None]]:
    """Per-layer metrics per traced pass, and the tracing checks' results.

    Two checks, each a failure reason or None.  Coverage: every layer the
    workload calls records self time, so no wrapper has stopped seeing
    its calls.  Accounting: the layer self times add up to the traced wall
    time within the tracing overhead.  Every op runs under the ``cli.main``
    span, so what they leave over is that wrapper's own entry and exit;
    the calibrated wrapper cost bounds it where the measured overhead,
    one pair of passes on a drifting machine, reads low or negative.
    """
    from perfbench import tracing

    summary = tracing.summarize(runner.tracer)
    n_traced = len(runner.walls[True])
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    m = {
        f"{span}.{field}": summary.get(span, zero)[field] / n_traced
        for span, fields in SPAN_FIELDS
        for field in fields
    }
    grads = summary.get("material.wstar_prime", zero)["calls"]
    projections = sum(summary.get(s, zero)["calls"] for s in ("regularized.project_h", "regularized.project_H"))
    m["regularized.proj_per_grad"] = projections / grads if grads else 0.0
    m["serialize.bytes_written"] = runner.bytes_written
    m["unconverged_frac"] = runner.quality.get("unconverged_frac", 0.0)
    own = tracing.layer_self(summary)
    for layer, seconds in own.items():
        m[f"layer.{layer}.self_s"] = seconds / n_traced
    m.update(kernel_us)

    traced_total = sum(runner.walls[True])
    traced_wall = statistics.median(runner.walls[True])
    spans_per_pass = len(runner.tracer) / n_traced
    wrapper = tracing.wrapper_cost() * spans_per_pass / traced_wall
    if runner.walls[False]:
        untraced_wall = statistics.median(runner.walls[False])
        # Passes alternate traced, untraced, ...: compare neighbours, so that
        # drift of the machine's speed during the run cancels.
        pairs = zip(runner.walls[True], runner.walls[False])
        overhead = statistics.median(t / u for t, u in pairs) - 1.0
    else:
        untraced_wall, overhead = 0.0, wrapper
    unaccounted = (traced_total - sum(own.values())) / traced_total
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_frac"] = overhead
    m["trace.wrapper_overhead_frac"] = wrapper
    m["trace.unaccounted_frac"] = unaccounted
    m["trace.spans"] = spans_per_pass
    silent = [layer for layer in runner.workload.layers if own[layer] <= 0.0]
    coverage = f"no self time recorded in layers the workload calls: {', '.join(silent)}" if silent else None
    accounting = None
    if not -1e-9 <= unaccounted <= max(overhead, wrapper):
        accounting = (
            f"layer self times leave {unaccounted:.2%} of the traced wall time unaccounted, "
            f"more than the tracing overhead ({max(overhead, wrapper):.2%})"
        )
    return m, [coverage, accounting]


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "fracture1d" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    setup_probe.setup(ROOT, out / "setup")
    import fracture1d

    if Path(fracture1d.__file__).resolve().parent != (ROOT / "src" / "fracture1d").resolve():
        print(f"error: fracture1d imported from {fracture1d.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_start = perf_counter()
    from perfbench import kernels, tracing
    from perfbench.probe import SpeedProbe
    from perfbench.workloads import WORKLOADS

    setups = []  # (set-up s, reference import s) per fresh interpreter
    workload = WORKLOADS[args.workload]
    if args.trace:
        runner = Runner(workload, args.seed, out, tracer=tracing.Tracer())
    else:
        runner = Runner(workload, args.seed, out, probe=SpeedProbe)
    if workload.warmup:
        runner.do_pass(timed=False)
    deadline = perf_counter() + args.seconds
    trace_checks: list[str | None] = []
    if args.trace:
        _traced(runner, deadline, run_start)
        metrics, trace_checks = per_layer_metrics(runner, kernels.kernel_times(args.seed))
        runner.tracer.dump(out / "spans.npz")
        spec = per_layer_spec()
    else:
        _untraced(runner, deadline)
        setups = [_probe_setup(out / "setup") for _ in range(SETUP_PROBES)]
        nominal = setup_probe.NOMINAL_IMPORT_S
        metrics = end_to_end_metrics(runner, [s * nominal / ref for s, ref in setups])
        spec = list(E2E)

    env = environment(args.seed)
    samples = {
        "passes_untraced": len(runner.walls[False]),
        "passes_traced": len(runner.walls[True]),
        "op_latency_samples": sum(len(latencies) for latencies in runner.latencies),
        "op_ms_p99_samples_above_per_pass": len(runner.ops) - math.ceil(0.99 * len(runner.ops)),
        "raw_setup_s": [s for s, _ in setups],
        "reference_import_s": [ref for _, ref in setups],
        "pass_s": runner.walls[False],
        "raw_pass_s": runner.raw_walls,
        "probe_us": [t * 1e6 for t in runner.probe_s],
        "traced_pass_s": runner.walls[True],
    }
    problems = runner.failures + [f for f in trace_checks if f is not None]
    failed = len(problems)
    attempted = runner.attempted + len(trace_checks)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "samples": samples,
        "failed_frac": failed / attempted,
        "failures": problems[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    (out / "result.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# samples {json.dumps(samples, sort_keys=True)}")
    print(f"# failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for name, unit in spec:
        print(f"# {name:40s} {metrics[name]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
