"""Subset-enumeration oracles for the best-of-k estimators.

``phasevolve.estimators`` computes the SLOO and PKPO weights in closed form
from one sort. These oracles enumerate every size-k subset instead, so they
are exact by construction and only usable on small groups; the tests require
both forms to agree.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from phasevolve.estimators import InvalidSubsetSizeError

MAX_ENUMERATION_GROUP = 20


class EnumerationGuardError(ValueError):
    """Brute-force enumeration requested for a group above the size guard."""


def _small_group(rewards, k: int, k_min: int) -> np.ndarray:
    values = np.asarray(rewards, dtype=np.float64)
    n = values.size
    if n > MAX_ENUMERATION_GROUP:
        raise EnumerationGuardError(
            f"group size {n} exceeds enumeration guard {MAX_ENUMERATION_GROUP}"
        )
    if not k_min <= k <= n:
        raise InvalidSubsetSizeError(f"k={k} outside [{k_min}, {n}]")
    return values


def sloo_weights_bruteforce(rewards, k: int) -> np.ndarray:
    """Enumeration oracle for ``sloo_weights``: sums margins over all subsets.

    Only the strict winner of a subset has a nonzero margin (max minus
    runner-up), so each subset contributes its top-two gap at its argmax.
    """
    values = _small_group(rewards, k, 2)
    n = values.size
    subsets = np.array(list(combinations(range(n), k)), dtype=np.intp)
    vals = values[subsets]
    order = np.argsort(vals, axis=1, kind="stable")
    rows = np.arange(subsets.shape[0])
    top = vals[rows, order[:, -1]]
    second = vals[rows, order[:, -2]]
    winner = subsets[rows, order[:, -1]]

    weights = np.zeros(n)
    np.add.at(weights, winner, top - second)
    return weights / math.comb(n, k)


def pkpo_weights_bruteforce(rewards, k: int) -> np.ndarray:
    """Enumeration oracle for ``pkpo_weights``.

    w_i is the sum of max(S) over the size-k subsets S that contain i,
    divided by C(n, k); each sum is taken with ``math.fsum``.
    """
    values = _small_group(rewards, k, 1)
    n = values.size
    maxima: list[list[float]] = [[] for _ in range(n)]
    for subset in combinations(range(n), k):
        best = max(values[i] for i in subset)
        for i in subset:
            maxima[i].append(best)
    return np.array([math.fsum(m) for m in maxima]) / math.comb(n, k)
