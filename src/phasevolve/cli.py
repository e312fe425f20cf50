"""Command-line surface: run experiments, compute estimators, export traces.

Exit codes: 0 success, 2 configuration/input error, 3 runtime error. The
default output directory comes from --out, then $PHASEVOLVE_OUT, then ./runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import estimators
from .config import MODES, ConfigError, RunConfig, load_config
from .orchestrator import run_evolution
from .tasks import make_task
from .trace import read_trace, step_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The configured modes, then the raw signals (``pkpo`` is the unstandardized
# weighting that ``maxk`` standardizes).
ESTIMATE_MODES = MODES + ("raw", "pkpo", "sloo")
DEFAULTS = RunConfig()


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
    est_p.add_argument(
        "--k", type=int, default=None,
        help=f"best-of-k subset size (default min({DEFAULTS.top_k}, N))",
    )
    est_p.add_argument("--gamma", type=float, default=DEFAULTS.gamma, help="entropic KL budget")
    est_p.add_argument("--alpha", type=float, default=0.5, help="phase mixture coefficient")
    est_p.add_argument("--eps-num", type=float, default=DEFAULTS.eps_num)
    est_p.add_argument("--eps-skip", type=float, default=DEFAULTS.eps_skip)

    exp_p = sub.add_parser("export", help="export one step series from a trace as CSV")
    exp_p.add_argument("--trace", required=True)
    exp_p.add_argument("--series", required=True, help="a numeric or boolean step field")

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


def _read_failure(exc: OSError | UnicodeDecodeError) -> str:
    """Why an input file could not be read."""
    return f"not UTF-8 text ({exc})" if isinstance(exc, UnicodeDecodeError) else exc.strerror


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
            config.validate()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config file {args.config}: {_read_failure(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_root = args.out or os.environ.get("PHASEVOLVE_OUT") or "runs"
    out_dir = Path(out_root)
    if args.out is None:
        out_dir = out_dir / f"{config.task}-seed{config.seed}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        task = make_task(config)
    except (KeyError, ValueError, OSError) as exc:
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
            "tokens": list(cand.tokens.tokens),
            "descriptor": descriptor,
        }
        for cand, descriptor in zip(result.archive.entries, result.descriptors)
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
    with open(path, encoding="utf-8") as fh:
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
    # The estimators check their own ranges, but nan and inf pass most of them.
    for flag in ("eps_num", "eps_skip", "gamma", "alpha"):
        if not math.isfinite(getattr(args, flag)):
            print(f"--{flag.replace('_', '-')} must be finite, got {getattr(args, flag)}",
                  file=sys.stderr)
            return EXIT_CONFIG
    try:
        rewards = _read_rewards(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read rewards file {args.file}: {_read_failure(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    k = args.k if args.k is not None else min(DEFAULTS.top_k, rewards.size)
    try:
        if args.mode == "raw":
            out = estimators.group_relative_raw(rewards)
        elif args.mode == "pkpo":
            out = estimators.pkpo_weights(rewards, k)
        elif args.mode == "sloo":
            out = estimators.sloo_weights(rewards, k)
        else:
            out, _ = estimators.advantages(
                args.mode,
                rewards,
                args.alpha,
                k=k,
                eps_num=args.eps_num,
                eps_skip=args.eps_skip,
                gamma=args.gamma,
                beta_max=DEFAULTS.beta_max,
                beta_tol=DEFAULTS.beta_tol,
            )
    except ValueError as exc:
        # covers EstimatorError subclasses and bad eps/alpha flags alike
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    if out is None:
        print("SKIP")
        return EXIT_OK
    for value in out:
        print(repr(float(value)))
    return EXIT_OK


def _cmd_export(args) -> int:
    try:
        records = read_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace file {args.trace}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # not JSON, not UTF-8, or not a trace record
        print(f"trace does not parse: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        series = step_series(records, args.series)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    print("iteration,value")
    for iteration, value in series:
        print(f"{iteration},{value!r}")
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
