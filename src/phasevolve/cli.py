"""Command-line surface: run experiments, compute estimators, export traces.

Exit codes: 0 success, 2 configuration/input error, 3 runtime error. The
default output directory comes from --out, then $PHASEVOLVE_OUT, then ./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import estimators
from .config import ConfigError, load_config
from .orchestrator import run_evolution
from .tasks import make_task
from .trace import STEP_SERIES, read_trace, step_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

ESTIMATE_MODES = ("grpo", "raw", "entropic", "pkpo", "sloo", "sloo-brute", "phase")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasevolve",
        description="Phase-adaptive policy optimization for evolutionary search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an evolution experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to a key = value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory for trace + archive")

    est_p = sub.add_parser("estimate", help="compute advantage estimators on a rewards file")
    est_p.add_argument("--file", required=True, help="newline-separated rewards, one per line")
    est_p.add_argument("--mode", required=True, choices=ESTIMATE_MODES)
    est_p.add_argument("--k", type=int, default=None, help="best-of-k subset size (default min(4, N))")
    est_p.add_argument("--gamma", type=float, default=0.3, help="entropic KL budget")
    est_p.add_argument("--alpha", type=float, default=0.5, help="phase mixture coefficient")
    est_p.add_argument("--eps-num", type=float, default=1e-8)
    est_p.add_argument("--eps-skip", type=float, default=1e-6)

    exp_p = sub.add_parser("export", help="export one step series from a trace as CSV")
    exp_p.add_argument("--trace", required=True)
    exp_p.add_argument("--series", required=True)

    return parser


def _write_json_atomic(path: Path, obj) -> None:
    """Write ``obj`` as JSON beside ``path``, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        config.seed = args.seed

    out_root = args.out or os.environ.get("PHASEVOLVE_OUT") or "runs"
    out_dir = Path(out_root)
    if args.out is None:
        out_dir = out_dir / f"{config.task}-seed{config.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        task = make_task(config)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    trace_path = out_dir / "trace.jsonl"
    try:
        result = run_evolution(config, task, trace_path=trace_path)
    except OSError as exc:
        print(f"runtime error: trace sink failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    archive_dump = [
        {
            "id": cand.id,
            "raw_score": cand.raw_score,
            "reward": cand.reward,
            "iteration_born": cand.iteration_born,
            "tokens": cand.tokens.tokens.tolist(),
            "descriptor": cand.descriptor,
        }
        for cand in result.archive.entries
    ]
    _write_json_atomic(out_dir / "archive.json", archive_dump)

    print(f"trace: {trace_path}")
    print(f"archive: {out_dir / 'archive.json'}")
    print(f"best_score: {result.best_score}")
    print(f"best_iteration: {result.best_iteration}")
    print(f"skip_steps: {result.skip_steps}")
    return EXIT_OK


def _read_rewards(path: str) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                values.append(float(stripped))
            except ValueError:
                raise ConfigError(f"line {lineno}: not a number: {stripped!r}") from None
    if len(values) < 2:
        raise ConfigError(f"need at least 2 reward values, got {len(values)}")
    return np.array(values)


def _cmd_estimate(args) -> int:
    try:
        rewards = _read_rewards(args.file)
    except FileNotFoundError:
        print(f"rewards file not found: {args.file}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    n = rewards.size
    k = args.k if args.k is not None else min(4, n)
    try:
        if args.mode == "grpo":
            out = estimators.grpo_advantage(rewards, args.eps_num)
        elif args.mode == "raw":
            out = estimators.group_relative_raw(rewards)
        elif args.mode == "entropic":
            found = estimators.entropic_beta(rewards, args.gamma)
            out = estimators.entropic_advantage(rewards, found.beta, args.eps_num)
        elif args.mode == "pkpo":
            out = estimators.pkpo_weights(rewards, k)
        elif args.mode == "sloo":
            out = estimators.sloo_weights(rewards, k)
        elif args.mode == "sloo-brute":
            out = estimators.sloo_weights_bruteforce(rewards, k)
        else:  # phase
            g_std = estimators.standardize(
                estimators.group_relative_raw(rewards), args.eps_num, args.eps_skip
            )
            k_std = estimators.standardize(
                estimators.sloo_weights(rewards, k), args.eps_num, args.eps_skip
            )
            mixed = estimators.mix_advantages(g_std, k_std, args.alpha)
            if mixed is None:
                print("SKIP")
                return EXIT_OK
            out = mixed
    except ValueError as exc:
        # covers EstimatorError subclasses and bad eps/alpha flags alike
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    for value in out:
        print(repr(float(value)))
    return EXIT_OK


def _cmd_export(args) -> int:
    if args.series not in STEP_SERIES:
        print(
            f"unknown series {args.series!r}; valid: {', '.join(STEP_SERIES)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    try:
        records = read_trace(args.trace)
    except FileNotFoundError:
        print(f"trace file not found: {args.trace}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"trace does not parse: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("iteration,value")
    for iteration, value in step_series(records, args.series):
        print(f"{iteration},{repr(float(value))}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    return _cmd_export(args)


if __name__ == "__main__":
    sys.exit(main())
