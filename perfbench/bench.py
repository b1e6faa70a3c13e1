"""Measuring loop, environment block and result line of the vslct benchmark.

Run through run.py, which pins the BLAS thread count before numpy loads.
Untraced runs (--trace 0) report the end-to-end metrics; a traced run
(--trace 1) reports the per-layer metrics from spans around every public
function of each vslct layer.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import reference
import spans
import workloads

# (name, unit) of the end-to-end metrics of an untraced run.  The op time
# is in units of the workload's reference loop, timed right after each op:
# the shared host runs 1.5x slower for seconds to minutes at a time, often
# for a whole run, and that noise moves raw times between runs far more
# than this ratio (README.md, "Noise").
END_TO_END = (
    ("setup_s", "s"),
    ("op_cost_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("auc_mean", "auc"),
)

# A tail percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100

# The coverage check allows the measured tracing overhead, but never less
# than this share of an op: timer reads, harness glue between spans and an
# occasional garbage collection there, while the overhead estimate from
# traced/untraced pairs is itself noisy on a shared host.
COVERAGE_FLOOR = 0.01

BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment(root: str) -> dict:
    """Where and on what the numbers were measured."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        **git_state(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get(BLAS_THREADS_ENV),
    }


def git_state(root: str) -> dict:
    """Commit and dirty flag, or None for both when `root` is not the top of a git checkout."""

    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, timeout=30)

    try:
        # A plain copy of the sources inside some other repository is not that repository's commit.
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return {"git_sha": None, "git_dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


class Run:
    """One benchmark invocation: setup, the measuring loop, its checks and metrics."""

    def __init__(self, workload, seeds, sizes, seconds: float, work_dir: str):
        self.workload = workload
        self.seeds, self.sizes = seeds, sizes
        self.seconds = seconds
        self.work_dir = work_dir
        self.errors: list[str] = []  # failures outside any single op
        self.failed_ops = 0
        self.attempted = 0
        self.setup_times: list[float] = []
        # Installs the workload's hooks around untraced ops.
        self.hooked = spans.Recorder(trace=False, hooks=workload.hooks())

    def setup(self, workload, recorder=None) -> None:
        """One setup repetition: a fresh interpreter's imports plus the workload's setup."""
        work_dir = os.path.join(self.work_dir, f"setup-{len(self.setup_times)}")
        recorder = recorder or spans.Recorder(trace=False, hooks=workload.hooks())
        imports = import_seconds()
        started = time.perf_counter()
        with recorder.installed("setup"):
            errors = workload.setup(work_dir, self.seeds, self.sizes)
        self.setup_times.append(imports + time.perf_counter() - started)
        self.fail(errors)

    def fail(self, errors: list[str]) -> None:
        """Record failures that belong to no single op."""
        for msg in errors:
            print(f"FAIL: {msg}", file=sys.stderr)
        self.errors += errors

    def op(self, op, index: int, recorder=None):
        """Run and check one op; returns (latency_s, wall_s) or None if it failed."""
        self.attempted += 1
        try:
            with (recorder or self.hooked).installed(index):
                latency, wall, out = self.workload.run_op(op)
            errors = self.workload.check_op(op, out)
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            self.failed_ops += 1
            for msg in errors:
                print(f"FAIL op {index}: {msg}", file=sys.stderr)
            return None
        return latency, wall

    def untraced(self) -> list[tuple[str, float, float]]:
        """Repeat the op cycle for `seconds` of op time, and at least once.

        Returns (kind, latency, loop_s) of every op that passed, where
        loop_s times the workload's reference loop right after the op,
        outside the op time.

        The remaining setup repetitions run on fresh workload instances at
        even intervals of the measuring time, so that the median setup time
        samples the machine across the whole run.
        """
        ops = self.workload.ops()
        extra = self.sizes.setup_reps - 1
        due = [self.seconds * (i + 1) / (extra + 1) for i in range(extra)]
        samples: list[tuple[str, float, float]] = []
        loop = reference.LOOPS[self.workload.reference]
        measured = 0.0
        k = 0
        while k < len(ops) or k % self.workload.granularity or measured < self.seconds:
            if due and measured >= due[0]:
                due.pop(0)
                self.setup(type(self.workload)())
            started = time.perf_counter()
            op = ops[k % len(ops)]
            result = self.op(op, k)
            measured += time.perf_counter() - started
            if result is not None:
                samples.append((self.workload.kind(op), result[0], loop()))
            k += 1
        for _ in due:
            self.setup(type(self.workload)())
        return samples

    def traced(self, recorder) -> dict:
        """Each op of a fixed number of cycles runs traced and untraced, alternating order.

        The cycle count depends only on --seconds, so span call counts repeat
        exactly from run to run.
        """
        ops = self.workload.ops()
        nominal = NOMINAL_OP_S[self.workload.name] * len(ops)
        cycles = max(1, round(self.seconds / (2.0 * nominal)))
        traced, plain = [], []
        for k in range(cycles * len(ops)):
            op = ops[k % len(ops)]
            for with_trace in ((True, False) if k % 2 == 0 else (False, True)):
                result = self.op(op, k if with_trace else None, recorder if with_trace else None)
                if result is None:
                    continue
                if with_trace:
                    traced.append((k, result[1]))
                else:
                    plain.append(result[1])
        overhead = 1.0 - (sum(plain) / len(plain)) / (sum(w for _, w in traced) / len(traced)) if traced and plain else 0.0
        allowed = max(abs(overhead), COVERAGE_FLOOR)
        covered = recorder.self_time_by_op()
        for k, wall in traced:
            self.fail(checks.coverage(k, wall, covered[k], allowed))
        out = recorder.span_metrics()
        calls = {name: out[f"{name}.calls"] for name in spans.SPAN_NAMES}
        self.fail(checks.expected_counts(calls, self.workload.expected_calls(len(traced))))
        steps = calls["network.sgd_step"]
        out["network.sgd_step.clip_frac"] = recorder.clipped / steps if steps else 0.0
        out["analysis.run_sweep.reuse_frac"] = reuse_fraction(recorder)
        out["trace.overhead_frac"] = overhead
        return out

    def finish(self, reference_auc: float | None) -> None:
        """The workload's final checks, then its auc_mean against the recorded reference."""
        try:
            self.fail(self.workload.finish())
            if reference_auc is not None and not self.failed:
                self.fail(checks.reference_auc(self.workload.name, self.workload.auc_mean(), reference_auc))
        except Exception:
            self.fail([traceback.format_exc()])

    @property
    def failed(self) -> int:
        return min(self.attempted, self.failed_ops + len(self.errors))


# Nominal seconds per op at the commit that defined the benchmark; it fixes
# how many cycles a traced run covers for a given --seconds.
NOMINAL_OP_S = {"sweep-directional": 0.22, "lambda-scan": 0.44, "sweep-resume-report": 0.12}


# Timed in a child so that each setup repetition pays the imports anew.
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, vslct; print(repr(time.perf_counter() - t))"


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and vslct from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(repo_root(), "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def reuse_fraction(recorder) -> float:
    """Sweep rows loaded from disk divided by rows requested, over traced ops."""
    if not recorder.runs_requested:
        return 0.0
    trained = sum(
        1
        for i, name in enumerate(recorder.name)
        if name in ("training.train_baseline", "training.train_lct")
        and recorder.op[i] != "setup"
        and recorder.has_ancestor(i, "analysis.run_sweep")
    )
    return 1.0 - trained / recorder.runs_requested


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="vslct benchmark: one workload per invocation.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help=f"workload seed; 0 reproduces configs/directional.json, {workloads.HELD_OUT_SEED} is held out")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time; a traced run derives its fixed op count from it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    return parser.parse_args(argv)


def main(argv, sizes=workloads.FULL) -> int:
    args = parse_args(argv)
    root = repo_root()
    workload = workloads.WORKLOADS[args.workload]()
    seeds = workloads.derive_seeds(args.seed)
    work_root = os.path.join(root, ".perfbench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    run = Run(workload, seeds, sizes, args.seconds, work_dir)
    reference_auc = workloads.reference_auc(args.workload, args.seed) if sizes == workloads.FULL else None
    try:
        if args.trace:
            recorder = spans.Recorder(hooks=workload.hooks())
            run.setup(workload, recorder)
            values = run.traced(recorder)
            run.finish(reference_auc)
            recorder.dump(os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.json"))
            units = dict(spans.per_layer_metric_names())
            metrics_out = {name: metric(values[name], units[name]) for name, _ in spans.per_layer_metric_names()}
        else:
            run.setup(workload)
            samples = run.untraced()
            run.finish(reference_auc)
            auc_mean = workload.auc_mean() if not run.failed else 0.0
            values = {
                "setup_s": statistics.median(run.setup_times),
                "op_cost_ref": cost_in_loops(samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "auc_mean": auc_mean,
            }
            metrics_out = {name: metric(values[name], unit) for name, unit in END_TO_END}
            report_untraced(args.workload, samples, run.setup_times, sizes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("env " + json.dumps(environment(root), sort_keys=True))
    print(f"error_rate {run.failed}/{run.attempted}")
    for name, m in metrics_out.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics_out}))
    return 0 if correct else 1


def cost_in_loops(samples: list[tuple[str, float, float]]) -> float:
    """Mean over op kinds of the median ratio of op latency to the loop timed after it; 0.0 without samples."""
    ratios: dict[str, list[float]] = {}
    for kind, latency, loop_s in samples:
        ratios.setdefault(kind, []).append(latency / loop_s)
    return statistics.fmean(statistics.median(r) for r in ratios.values()) if ratios else 0.0


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (p a multiple of 10), 0.0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[p // 10 - 1]


def report_untraced(name, samples, setup_times, sizes) -> None:
    """Printed, not bounded: raw op times, throughput, median, and the tail when ten samples lie beyond it."""
    latencies = [latency for _, latency, _ in samples]
    n = len(latencies)
    print(f"workload {name}: {n} ops; setup_s is the median of {[round(t, 3) for t in setup_times]} s")
    if not n:
        return
    print(f"loop_s_p50 {statistics.median(loop for _, _, loop in samples)!r} s (reference loop, n={n})")
    ops_per_s = n / sum(latencies)
    print(f"ops_per_s {ops_per_s!r} 1/s (n={n})")
    print(f"op_s_p10 {percentile(latencies, 10)!r} s (n={n})")
    print(f"op_s_p50 {statistics.median(latencies)!r} s (n={n})")
    if n >= P90_MIN_OPS:
        print(f"op_s_p90 {percentile(latencies, 90)!r} s (n={n})")
    else:
        print(f"op_s_p90 not reported: {n} ops < {P90_MIN_OPS}")
    if name == "sweep-directional":
        print(f"steps_per_s {ops_per_s * workloads.steps_per_run(sizes.sweep_epochs)!r}")
