"""phasevolve benchmark: the closed evolution loop on three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A workload is a shipped sample config plus overrides; the benchmark writes
the run's config from it and the seed. One measured run is one closed-loop
``run_evolution`` over that config (one client: each group is sampled only
after the previous step), in this process. Runs repeat one at a
time for about --seconds, stopping at the run boundary nearest the deadline
and after at least MIN_REPEATS runs. Each run's time is split into short
intervals at every call into the evaluator and the training step. Every
repeat does the same work (the checks require the same trace bytes), so
each interval is timed by its fastest repeat: a shared host slows a varying
share of any run, and the fastest repeat is the one it disturbed least. An
iteration's time is the sum of its intervals; the timing metrics are taken
over those per-iteration times.
Every run's trace is checked (see checks.py); a run that fails a check
counts as failed, and the command exits 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced runs and reports the per-layer split from
the traced ones (see spans.py). Each metric is printed with its unit and
sample count; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs every workload,
each in its own process.

Outputs go to .perfbench/ at the checkout root: the generated config, the
last run's trace and spans, and runs.jsonl, one record per invocation with
the run environment and a fixed-work calibration timed before and after.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

if not (ROOT / "src" / "phasevolve").is_dir():
    sys.exit(f"perfbench: no phasevolve sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    from phasevolve import config as cfgmod
    from phasevolve import orchestrator, tasks
except ImportError as exc:
    sys.exit(f"perfbench: cannot import phasevolve from {ROOT / 'src'}: {exc}")

import checks  # noqa: E402  (after the program is on the path)
import spans  # noqa: E402

# name -> (sample config under configs/, overrides appended to it)
WORKLOADS = {
    "synthetic-dense": ("synthetic.cfg", {}),
    # Runs are kept short so that each interval gets many repeats.
    "eplb-wide": (
        "eplb.cfg",
        {"eplb.num_experts": 128, "eplb.num_devices": 16, "eplb.num_profiles": 16,
         "iterations": 50},
    ),
    # The skip rule starts firing near iteration 85 (about ten decay horizons),
    # so about two thirds of the steps skip: the median iteration is a
    # skipped one and the 80th percentile a trained one, on every seed.
    "synthetic-compressed": (
        "synthetic.cfg",
        {"synthetic.decay_horizon": 8, "iterations": 250},
    ),
}
SETUP_PROBES = 5
MIN_REPEATS = 3
INCLUSIVE_SPANS = ("orchestrator.rollout_group", "orchestrator.training_step")
MODULES = ("policy", "tasks", "estimators", "rewards", "orchestrator", "trace", "config")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


@dataclass
class Runs:
    """Totals over the runs of one kind (untraced or traced)."""

    intervals: list[np.ndarray] = field(default_factory=list)  # one array per run
    iteration_of: np.ndarray | None = None  # each interval's iteration, in every run
    summaries: list[checks.TraceSummary] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def evaluations(self) -> int:
        return sum(s.evaluations for s in self.summaries)

    def best_iter_s(self) -> np.ndarray:
        """Each iteration's time, with each of its intervals at its fastest repeat."""
        best = np.min(np.stack(self.intervals), axis=0)
        return np.bincount(self.iteration_of, weights=best)

    def evals_per_s(self) -> float:
        """One run's evaluations over the sum of its iteration times."""
        return self.summaries[0].evaluations / float(self.best_iter_s().sum())


def write_config(workload: str, seed: int, path: Path) -> Path:
    sample, overrides = WORKLOADS[workload]
    lines = [(ROOT / "configs" / sample).read_text(), "# perfbench overrides"]
    lines += [f"{key} = {value}" for key, value in {"seed": seed, **overrides}.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibration_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop.

    Recorded beside each run so that machine drift can be told apart from a
    program change; it never rescales a metric.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(cfg_path: Path, out: Path) -> list[float]:
    """Spawn-to-first-rollout times of SETUP_PROBES fresh processes."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path),
             str(out / "probe-trace.jsonl"), repr(spawned)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        if probe:  # the first probe fills the bytecode cache and is discarded
            times.append(float(proc.stdout.split()[-1]))
    return times


def one_run(cfg_path: Path, trace_path: Path):
    """One closed-loop run: its config, its intervals and each one's iteration.

    The clock is read on entry to and return from each rollout group,
    candidate evaluation and training step, and when ``run_evolution``
    returns. Consecutive readings bound the intervals; an iteration's intervals
    run from the start of its rollout group to the start of the next one.
    """
    config = cfgmod.load_config(cfg_path)
    task = tasks.make_task(config)
    stamps: list[float] = []
    starts: list[int] = []  # index in stamps of each rollout group's entry
    clock = time.perf_counter

    def stamped(fn, starts_iteration=False):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if starts_iteration:
                starts.append(len(stamps))
            stamps.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append(clock())

        return call

    task.evaluate = stamped(task.evaluate)
    rollout = stamped(orchestrator.rollout_group, starts_iteration=True)
    with spans.replaced(orchestrator, "rollout_group", rollout), spans.replaced(
        orchestrator, "training_step", stamped(orchestrator.training_step)
    ):
        orchestrator.run_evolution(config, task, trace_path=trace_path)
        stamps.append(clock())
    first = starts[0]
    intervals = np.diff(stamps[first:])
    iteration_of = np.searchsorted(np.subtract(starts, first), np.arange(intervals.size), "right") - 1
    return config, intervals, iteration_of


def layer_sample(tracer: spans.Tracer) -> dict:
    """What one traced run contributes to the per-layer metrics."""
    seen: set[str] = set()
    repeats = 0
    for descriptor in tracer.kept.get("tasks.describe", []):
        key = json.dumps(descriptor, sort_keys=True)
        repeats += key in seen
        seen.add(key)
    return {
        "self_s": tracer.self_times(),
        "calls": Counter(span[0] for span in tracer.spans),
        "loop_s": sum(tracer.durations(spans.LOOP_SPAN)),
        "evaluate_s": tracer.durations("tasks.evaluate"),
        "setup_s": {name: tracer.durations(name) for name in spans.SETUP_SPANS},
        "inclusive_s": {name: sum(tracer.durations(name)) for name in INCLUSIVE_SPANS},
        "repeats": repeats,
    }


def measure(cfg_path: Path, out: Path, seconds: float, traced: bool):
    """Repeat runs until the deadline; returns (untraced, traced, attempted, failures)."""
    plain, traced_runs = Runs(), Runs()
    kinds = [(plain, False), (traced_runs, True)] if traced else [(plain, False)]
    trace_path = out / "trace.jsonl"
    failures: list[str] = []
    first_digest = None
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        for runs, tracing in kinds:
            tracer = spans.Tracer()
            attempted += 1
            try:
                if tracing:
                    with spans.instrumented(tracer):
                        config, intervals, iteration_of = one_run(cfg_path, trace_path)
                else:
                    config, intervals, iteration_of = one_run(cfg_path, trace_path)
                    # Read before any trace is checked, so the checker's own
                    # memory is not counted; later runs repeat the first.
                    runs.peak_rss_mb = runs.peak_rss_mb or peak_rss_mb()
                summary = checks.check_trace(
                    trace_path, config.samples_per_group, config.iterations
                )
            except Exception:  # a crashing run is a failed operation, not the end
                failures.append(traceback.format_exc())
                continue
            first_digest = first_digest or summary.digest
            if summary.digest != first_digest:
                summary.problems.append("trace bytes differ from the first run's")
            if runs.iteration_of is None:
                runs.iteration_of = iteration_of
            if np.array_equal(iteration_of, runs.iteration_of):
                runs.intervals.append(intervals)
            else:
                summary.problems.append("calls differ from the first run's")
            if summary.problems:
                failures.append("; ".join(summary.problems))
            runs.summaries.append(summary)
            if tracing:
                runs.layers.append(layer_sample(tracer))
                tracer.write(out / "spans.jsonl")
        # Stop at the round boundary nearest the deadline, not the one after it.
        now = time.perf_counter()
        if now + (now - round_start) / 2 < deadline:
            continue
        if not all(runs.summaries for runs, _ in kinds):
            raise BenchError("no run completed:\n" + "\n".join(failures[-1:]))
        # A failed run already fails the result; do not wait for more repeats.
        if failures or all(len(runs.summaries) >= MIN_REPEATS for runs, _ in kinds):
            return plain, traced_runs, attempted, failures


def end_to_end_metrics(plain: Runs, setup: list[float]) -> dict:
    iter_ms = plain.best_iter_s() * 1e3
    evals = plain.evaluations
    steps = sum(s.steps for s in plain.summaries)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "evals_per_s": (plain.evals_per_s(), plain.summaries[0].evaluations),
        "iter_ms_p50": (float(np.percentile(iter_ms, 50)), iter_ms.size),
        # Every workload runs at least 50 iterations: ten or more beyond p80.
        "iter_ms_p80": (float(np.percentile(iter_ms, 80)), iter_ms.size),
        "best_score": (plain.summaries[0].best_score, len(plain.summaries)),
        "eval_ok_frac": (1 - sum(s.evals_not_parsed for s in plain.summaries) / evals, evals),
        "step_accept_frac": (1 - sum(s.steps_with_error for s in plain.summaries) / steps, steps),
        "peak_rss_mb": (plain.peak_rss_mb, 1),
    }


def per_layer_metrics(plain: Runs, traced: Runs, calibration: tuple[float, float]) -> dict:
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for sample in traced.layers:
        self_s.update(sample["self_s"])
        calls.update(sample["calls"])
    iters = calls["orchestrator.rollout_group"]
    loop_s = sum(sample["loop_s"] for sample in traced.layers)
    evaluate_ms = np.array([d for s in traced.layers for d in s["evaluate_s"]]) * 1e3
    describes = calls["tasks.describe"]
    summaries = traced.summaries
    runs = len(summaries)
    steps = sum(s.steps for s in summaries)
    candidates = calls["orchestrator.update_frontier"]

    def per_iter(name):
        return 1e3 * self_s[name] / iters, iters

    def inclusive_per_iter(name):
        return 1e3 * sum(s["inclusive_s"][name] for s in traced.layers) / iters, iters

    def setup_ms(name):
        times = [d for s in traced.layers for d in s["setup_s"][name]]
        return 1e3 * statistics.median(times), len(times)

    def step_frac(attr):
        return sum(getattr(s, attr) for s in summaries) / steps, steps

    metrics = {
        name + ".self_ms_per_iter": per_iter(name)
        for name in (
            "policy.sample_sequence", "policy.token_entropy", "policy.loss_and_gradient",
            "policy.optimizer_step", "policy.fingerprint", "tasks.evaluate",
            "tasks.describe", "rewards.shape_reward", "orchestrator.select_parent",
            "orchestrator.build_context", "orchestrator.update_frontier",
            "orchestrator.loop", "trace.write",
        )
    }
    module_s = Counter()
    for name, s in self_s.items():
        if name != spans.LOOP_SPAN and name not in spans.SETUP_SPANS:
            module_s[name.split(".")[0]] += s
    for module in MODULES:
        metrics[f"{module}.self_frac"] = (module_s[module] / loop_s, iters)
    metrics.update({
        "policy.trained_frac": (calls["policy.loss_and_gradient"] / iters, iters),
        "tasks.evaluate.call_ms_p50": (float(np.percentile(evaluate_ms, 50)), evaluate_ms.size),
        "tasks.evaluate.call_ms_p99": (float(np.percentile(evaluate_ms, 99)), evaluate_ms.size),
        "tasks.evaluate.calls": (calls["tasks.evaluate"], runs),
        "tasks.repeat_frac": (sum(s["repeats"] for s in traced.layers) / describes, describes),
        "estimators.self_ms_per_iter": (1e3 * module_s["estimators"] / iters, iters),
        "estimators.skip_frac": step_frac("skipped"),
        "estimators.g_skip_frac": step_frac("g_skipped"),
        "estimators.k_skip_frac": step_frac("k_skipped"),
        "orchestrator.steps": (steps, runs),
        "orchestrator.rollout_group.ms_per_iter": inclusive_per_iter("orchestrator.rollout_group"),
        "orchestrator.training_step.ms_per_iter": inclusive_per_iter("orchestrator.training_step"),
        "orchestrator.update_frontier.calls": (candidates, runs),
        "orchestrator.frontier_gain_frac": (
            sum(s.frontier_gains for s in summaries) / candidates, candidates
        ),
        "trace.bytes_per_iter": (sum(s.bytes for s in summaries) / steps, steps),
        "config.load_config.ms": setup_ms("config.load_config"),
        "tasks.make_task.ms": setup_ms("tasks.make_task"),
        "bench.coverage_frac": (1 - self_s[spans.LOOP_SPAN] / loop_s, iters),
        "bench.tracing_overhead_frac": (
            1 - traced.evals_per_s() / plain.evals_per_s(), runs
        ),
        "bench.calib_ms_before": (calibration[0], 3),
        "bench.calib_ms_after": (calibration[1], 3),
    })
    return metrics


def declared_units(trace: bool) -> dict[str, str]:
    """Units of the metrics this mode reports, as BENCHMARK.json declares them.

    Every per-layer metric must also appear in layers.json, which records the
    end-to-end metric and workload it should move.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if trace:
        layers = json.loads((HERE / "layers.json").read_text())["layers"]
        unmapped = set(units) - {name for layer in layers for name in layer["metrics"]}
        if unmapped:
            raise BenchError(f"per-layer metrics missing from layers.json: {sorted(unmapped)}")
    return units


def bench_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = write_config(workload, seed, out / "run.cfg")
    calib_before = calibration_ms()
    setup = [] if trace else setup_seconds(cfg_path, out)
    plain, traced, attempted, failures = measure(cfg_path, out, seconds, trace)
    calib_after = calibration_ms()
    if trace:
        metrics = per_layer_metrics(plain, traced, (calib_before, calib_after))
    else:
        metrics = end_to_end_metrics(plain, setup)

    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    failed = len(failures)
    env = environment()

    print(f"{workload} seed={seed} trace={int(trace)} runs={attempted} failed={failed}"
          f" (timings: each interval's fastest of {len(plain.intervals)} repeats)")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" calib_ms={calib_before:.2f}->{calib_after:.2f}")
    for name, (value, n) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]:<8} n={n}")
    for failure in failures:
        print(f"FAILED RUN: {failure}", file=sys.stderr)

    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "env": env, "calibration_ms": {"before": calib_before, "after": calib_after},
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in metrics.items()},
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def bench_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if not lines or not lines[-1].startswith("{"):
            print(f"perfbench: {workload} gave no result", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, bool(args.trace))
    try:
        return bench_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
