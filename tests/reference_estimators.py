"""Oracles for the best-of-k estimators.

``phasevolve.estimators`` computes the SLOO and PKPO weights in closed form
from one sort. The enumeration oracles take every size-k subset instead, so
they are exact by construction and only usable on small groups; the tests
require both forms to agree.

``pkpo_weights_argsort`` and ``sloo_weights_argsort`` are the closed forms as
they were with a numpy stable argsort and numpy centering and scattering.
The library's list sort must give the same floats, bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from phasevolve.estimators import InvalidSubsetSizeError, _as_group, _scaled_binomials

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


def pkpo_weights_argsort(rewards, k: int) -> np.ndarray:
    """Unbiased best-of-k weights: mean subset max over size-k subsets with i.

    With the group sorted best first, a subset holding the element at
    position m takes its max from m itself, C(n-1-m, k-1) times, or from a
    better position p, C(n-p-2, k-2) times. Both counts are taken as ratios
    to C(n, k), so each weight is the element's own term plus a prefix sum
    over the better ones.
    """
    values = _as_group(rewards)
    n = values.size
    if not 1 <= k <= n:
        raise InvalidSubsetSizeError(f"k={k} outside [1, {n}]")

    order = np.argsort(-values, kind="stable")
    own = _scaled_binomials(k / n, n - 1, k - 1, n)
    better = _scaled_binomials(k * (k - 1) / (n * (n - 1)), n - 2, k - 2, n - 1)
    weights_sorted = []
    prefix = 0.0
    previous = None
    for m, value in enumerate(values[order].tolist()):
        # Tied elements have equal weights; they get the same float too.
        if value != previous:
            weight = value * own[m] + prefix
            previous = value
        weights_sorted.append(weight)
        if m < n - 1:
            prefix += better[m] * value

    weights = np.empty(n)
    weights[order] = weights_sorted
    return weights


def sloo_weights_argsort(rewards, k: int) -> np.ndarray:
    """Best-of-k marginal-contribution weights, one sort and one suffix pass.

    Element i earns, for every size-k subset it strictly wins, the margin to
    the runner-up. With the group sorted best first, the runner-up at
    position j is shared by C(n-1-j, k-2) such subsets, a count that does not
    depend on the winner; so each weight is a suffix sum over the strictly
    worse positions, which keeps it exact under tied rewards (tied maxima
    carry zero margin). Rewards are centered at the group max first, so
    compressed gaps keep their precision.
    """
    values = _as_group(rewards)
    n = values.size
    if not 2 <= k <= n:
        raise InvalidSubsetSizeError(f"k={k} outside [2, {n}]")

    order = np.argsort(-values, kind="stable")
    centered = (values[order] - values[order[0]]).tolist()
    coef = _scaled_binomials(k * (k - 1) / (n * (n - k + 1)), n - 1, k - 2, n)
    weights_sorted = [0.0] * n
    suffix_c = suffix_cv = 0.0
    following = None
    for m in range(n - 1, -1, -1):
        value = centered[m]
        # A tie block takes the weight of its last member, whose suffix holds
        # only strictly worse positions.
        if value != following:
            margin = value * suffix_c - suffix_cv
            # Never negative in exact arithmetic; rounding must not make it so.
            weight = margin if margin > 0.0 else 0.0
            following = value
        weights_sorted[m] = weight
        suffix_c += coef[m]
        suffix_cv += coef[m] * value

    weights = np.empty(n)
    weights[order] = weights_sorted
    return weights
