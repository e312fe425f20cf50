#!/usr/bin/env python3
"""Evolve a load-balancing heuristic on seeded synthetic workload profiles.

Prints the best heuristic descriptor found and its score decomposition
against the base heuristic (descending-load greedy placement).

Usage: python scripts/run_eplb_search.py [--iterations 150] [--seed 0]
"""

import argparse

import numpy as np

from phasevolve.config import RunConfig
from phasevolve.orchestrator import run_evolution
from phasevolve.policy import TokenSequence
from phasevolve.tasks import make_task


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--experts", type=int, default=32)
    parser.add_argument("--devices", type=int, default=4)
    args = parser.parse_args()

    config = RunConfig(
        task="eplb",
        seed=args.seed,
        iterations=args.iterations,
        samples_per_group=8,
        top_k=4,
        mode="phase",
        learning_rate=0.05,
        weight_decay=0.0,
        eplb_num_experts=args.experts,
        eplb_num_devices=args.devices,
    )
    task = make_task(config)
    result = run_evolution(config, task)

    base = task.evaluate(
        TokenSequence(np.zeros(config.seq_length, dtype=np.int64), np.zeros(config.seq_length)),
        0,
        np.random.default_rng(0),
    )
    print(f"evaluations: {config.iterations * config.samples_per_group}")
    print(f"base score:  {base.value:.6f} {base.metrics}")
    print(f"best score:  {result.best_score:.6f} (iteration {result.best_iteration})")
    print(f"skip steps:  {result.skip_steps}")
    print(f"descriptor:  {result.descriptors[0]}")
    print(f"metrics:     {result.archive.entries[0].outcome.metrics}")


if __name__ == "__main__":
    main()
