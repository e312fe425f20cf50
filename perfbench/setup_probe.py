"""Child process that measures set-up: process spawn to the first rollout group.

Usage: setup_probe.py CONFIG TRACE SPAWNED

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started this
process. The probe imports phasevolve, parses the config, builds the task and
runs ``run_evolution`` up to the first ``rollout_group`` call, which includes
the seed evaluation. It prints the elapsed seconds and exits.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


class FirstRollout(Exception):
    """Raised in place of the first rollout group, carrying the time reached."""


def first_rollout(*args, **kwargs):
    raise FirstRollout(time.clock_gettime(time.CLOCK_MONOTONIC))


def main() -> int:
    cfg_path, trace_path, spawned = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from phasevolve import config, orchestrator, tasks

    orchestrator.rollout_group = first_rollout
    cfg = config.load_config(cfg_path)
    try:
        orchestrator.run_evolution(cfg, tasks.make_task(cfg), trace_path=trace_path)
    except FirstRollout as reached:
        print(reached.args[0] - spawned)
        return 0
    print("run_evolution finished without a rollout group", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
