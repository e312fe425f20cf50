"""Advantage estimators for grouped rollouts.

All estimators operate on one rollout group at a time: a vector of N shaped
rewards produced from the same search state. They are pure functions; nothing
here touches policy parameters or global state.

Implemented signals:

* ``group_relative_raw`` / ``grpo_advantage`` -- dense centered credit.
* ``pkpo_weights`` -- best-of-k subset-max weighting.
* ``sloo_weights`` -- leave-one-out marginal contribution to the best-of-k
  frontier.

  Both best-of-k weights order the group with one Python sort, take one
  pass of running sums over Python floats, and put the weights back at
  their positions, O(N log N). Their subset counts enter only as float
  ratios to C(N, k), kept per group shape, so they stay finite at any group
  size. The subset-enumeration oracles they are tested against, and their
  earlier numpy argsort forms, live in ``tests/reference_estimators.py``.
* ``entropic_beta`` / ``entropic_advantage`` -- exponentially tilted
  leave-one-out credit with a KL budget.
* ``standardize`` + ``mix_advantages`` + ``phase_alpha`` -- the per-group
  standardization, degenerate-branch skip rule, and the linear phase mixture.

``advantages`` is the one place that turns a configured estimator mode
(``config.MODES``) into a group's per-candidate advantages, or None when the
step must be skipped. The training step and ``phasevolve estimate`` both
call it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class EstimatorError(ValueError):
    """Base class for estimator contract violations."""


class InvalidGroupError(EstimatorError):
    """Rollout group too small (or otherwise unusable) for the estimator."""


class InvalidSubsetSizeError(EstimatorError):
    """Subset size k outside the valid range for the group."""


class UnreachableBudgetError(EstimatorError):
    """KL budget cannot be met (constant rewards have zero KL for any beta)."""


@dataclass(frozen=True)
class BranchOutcome:
    """Result of standardizing one advantage branch within its group.

    ``values`` is None exactly when the branch was skipped because its raw
    standard deviation was non-finite or below ``eps_skip``. ``mean``/``std``
    record the raw branch statistics either way, for diagnostics.
    """

    values: np.ndarray | None
    mean: float
    std: float

    @property
    def skipped(self) -> bool:
        return self.values is None


@dataclass(frozen=True)
class PhaseSchedule:
    """Linear exploration-to-refinement schedule over a fixed horizon."""

    total_iterations: int = 1000

    def __post_init__(self) -> None:
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")

    def alpha(self, t: int) -> float:
        return phase_alpha(t, self.total_iterations)


class BetaSearchResult(NamedTuple):
    beta: float
    kl: float
    saturated: bool


def _as_group(rewards) -> np.ndarray:
    """Validate one rollout group's reward vector."""
    values = np.asarray(rewards, dtype=np.float64)
    if values.ndim != 1:
        raise InvalidGroupError(f"reward vector must be 1-d, got shape {values.shape}")
    if values.size < 2:
        raise InvalidGroupError(f"group size {values.size} below minimum 2")
    if not np.isfinite(values).all():
        raise InvalidGroupError(
            "non-finite rewards must be mapped to the failure reward upstream"
        )
    return values


def group_relative_raw(rewards) -> np.ndarray:
    """Centered rewards R_i - mean(R); the dense exploration-phase signal."""
    values = _as_group(rewards)
    return values - np.add.reduce(values) / values.size


def grpo_advantage(rewards, eps_num: float) -> np.ndarray:
    """Group z-score (R_i - mean) / (population std + eps_num).

    Raises ``InvalidGroupError`` when the std overflows: dividing by it
    would silently give all-zero advantages.
    """
    if eps_num < 0:
        raise ValueError(f"eps_num must be >= 0, got {eps_num}")
    values = _as_group(rewards)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = values - values.mean()
        std = values.std()
    if not math.isfinite(std):
        raise InvalidGroupError("reward std overflows: rewards too large to standardize")
    denom = std + eps_num
    if denom == 0.0:
        # Constant group with eps_num == 0: numerator is identically zero.
        return np.zeros_like(centered)
    return centered / denom


def _kl_to_uniform(beta: float, rewards: np.ndarray) -> float:
    """KL(q_beta || uniform) with q_beta = softmax(beta * R), in log space."""
    z = beta * rewards
    z = z - z.max()
    log_q = z - math.log(np.exp(z).sum())
    q = np.exp(log_q)
    return float(np.einsum("i,i->", q, log_q) + math.log(rewards.size))


def entropic_beta(
    rewards,
    gamma: float,
    beta_max: float = 50.0,
    tol: float = 1e-6,
) -> BetaSearchResult:
    """Find beta >= 0 whose tilted distribution meets the KL budget gamma.

    Uses bisection on [0, beta_max]; KL(q_beta || uniform) is increasing in
    beta for non-constant rewards. If even beta_max cannot reach the budget,
    returns beta_max with ``saturated`` set.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if not beta_max > 0:
        raise ValueError(f"beta_max must be positive, got {beta_max}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    values = _as_group(rewards)
    if gamma == 0.0:
        return BetaSearchResult(0.0, 0.0, False)
    if np.all(values == values[0]):
        if gamma > tol:
            raise UnreachableBudgetError(
                "constant rewards have zero KL for every beta"
            )
        return BetaSearchResult(0.0, 0.0, False)

    kl_hi = _kl_to_uniform(beta_max, values)
    if kl_hi < gamma:
        return BetaSearchResult(beta_max, kl_hi, True)

    lo, hi = 0.0, beta_max
    beta = beta_max
    kl = kl_hi
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        kl = _kl_to_uniform(beta, values)
        if abs(kl - gamma) <= tol:
            break
        if kl < gamma:
            lo = beta
        else:
            hi = beta
    return BetaSearchResult(beta, kl, False)


def entropic_advantage(rewards, beta: float, eps_num: float) -> np.ndarray:
    """Tilted leave-one-out advantage exp(beta dR_i)/(Z_-i + eps) - 1.

    Exponentials are anchored at the max reward so the largest term is
    exactly 1; Z_-i averages the other N-1 tilted terms.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    values = _as_group(rewards)
    tilted = np.exp(beta * (values - values.max()))
    z_loo = (tilted.sum() - tilted) / (values.size - 1)
    return tilted / (z_loo + eps_num) - 1.0


@functools.lru_cache(maxsize=64)
def _scaled_binomials(first: float, top: int, r: int, length: int) -> tuple[float, ...]:
    """``first * C(top - j, r) / C(top, r)`` for j = 0 .. length-1, as floats.

    Each term steps down from the one before with C(m-1, r) / C(m, r) =
    (m - r) / m, so no big integer is formed: terms past m = r are exactly 0
    and tiny ones underflow to 0. Kept per argument tuple: a run asks for the
    same few group shapes every iteration.
    """
    out = [first]
    for m in range(top, top - length + 1, -1):
        out.append(out[-1] * (m - r) / m if m > r else 0.0)
    return tuple(out)


def _best_first(values: np.ndarray) -> tuple[list[int], list[float]]:
    """The group's positions best first, ties in position order, and their
    values as Python floats.

    ``sorted`` is stable under ``reverse``, so this is the order of
    ``np.argsort(-values, kind="stable")``, with -0.0 and 0.0 tied.
    """
    vals = values.tolist()
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    return order, [vals[i] for i in order]


def _scatter(order: list[int], weights_sorted: list[float]) -> np.ndarray:
    """Weights given in ``order`` put back at their positions."""
    weights = [0.0] * len(order)
    for i, weight in zip(order, weights_sorted):
        weights[i] = weight
    return np.array(weights)


def pkpo_weights(rewards, k: int) -> np.ndarray:
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

    order, ranked = _best_first(values)
    own = _scaled_binomials(k / n, n - 1, k - 1, n)
    better = _scaled_binomials(k * (k - 1) / (n * (n - 1)), n - 2, k - 2, n - 1)
    weights_sorted = []
    prefix = 0.0
    previous = None
    for m, value in enumerate(ranked):
        # Tied elements have equal weights; they get the same float too.
        if value != previous:
            weight = value * own[m] + prefix
            previous = value
        weights_sorted.append(weight)
        if m < n - 1:
            prefix += better[m] * value
    return _scatter(order, weights_sorted)


def sloo_weights(rewards, k: int) -> np.ndarray:
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

    order, ranked = _best_first(values)
    top = ranked[0]
    centered = [value - top for value in ranked]
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
    return _scatter(order, weights_sorted)


def standardize(branch, eps_num: float, eps_skip: float) -> BranchOutcome:
    """Standardize one branch within its group, or skip a degenerate one.

    A branch whose population std is non-finite or below ``eps_skip`` has
    collapsed to numerical noise: amplifying it would turn noise into a
    full-scale gradient, so the outcome is Skipped instead of standardized.
    """
    if eps_num < 0:
        raise ValueError(f"eps_num must be >= 0, got {eps_num}")
    if not eps_skip > 0:
        raise ValueError(f"eps_skip must be positive, got {eps_skip}")
    values = np.asarray(branch, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise InvalidGroupError("branch must hold at least 2 values")
    # np.std's own steps, taken once: the same floats as values.mean() and
    # values.std(), and the centered values are the standardized numerators.
    n = values.size
    mean = float(np.add.reduce(values) / n)
    centered = values - mean
    std = math.sqrt(np.add.reduce(centered * centered) / n)
    if not math.isfinite(std) or std < eps_skip:
        return BranchOutcome(values=None, mean=mean, std=std)
    return BranchOutcome(values=centered / (std + eps_num), mean=mean, std=std)


def mix_advantages(
    g_std: BranchOutcome, k_std: BranchOutcome, alpha: float
) -> np.ndarray | None:
    """Convex mixture (1-alpha)*group + alpha*top-k of standardized branches.

    Returns None (skip) when both branches collapsed, or when the only
    surviving branch has a zero mixture coefficient. A single surviving
    branch is scaled by its own coefficient; the weights are never
    renormalized, so a skipped branch contributes exactly nothing.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if g_std.skipped and k_std.skipped:
        return None
    if g_std.skipped:
        return alpha * k_std.values if alpha > 0.0 else None
    if k_std.skipped:
        return (1.0 - alpha) * g_std.values if alpha < 1.0 else None
    if g_std.values.shape != k_std.values.shape:
        raise ValueError(
            f"branch length mismatch: {g_std.values.shape} vs {k_std.values.shape}"
        )
    return (1.0 - alpha) * g_std.values + alpha * k_std.values


def phase_alpha(t: int, total_iterations: int) -> float:
    """Mixture coefficient t/T of the linear schedule."""
    if total_iterations < 1:
        raise ValueError("total_iterations must be >= 1")
    if not 0 <= t <= total_iterations:
        raise ValueError(f"iteration {t} outside [0, {total_iterations}]")
    return t / total_iterations


def advantages(
    mode: str,
    rewards,
    alpha: float,
    *,
    k: int,
    eps_num: float,
    eps_skip: float,
    gamma: float,
    beta_max: float,
    beta_tol: float,
) -> tuple[np.ndarray | None, dict]:
    """Per-candidate advantages of one group under estimator ``mode``.

    * ``phase`` -- the (1-alpha, alpha) mixture of the standardized
      group-relative and SLOO best-of-k branches.
    * ``grpo`` -- the group z-score; never skips.
    * ``entropic`` -- tilted leave-one-out credit at the beta that meets the
      KL budget ``gamma``.
    * ``maxk`` -- the standardized PKPO best-of-k weights.

    Returns ``(None, info)`` when the step must be skipped: collapsed
    branches, or an entropic budget no beta can meet on a constant group.
    ``info`` holds the mode's diagnostics for the step record.
    """
    info: dict = {}
    if mode == "phase":
        g_std = standardize(group_relative_raw(rewards), eps_num, eps_skip)
        k_std = standardize(sloo_weights(rewards, k), eps_num, eps_skip)
        info["g_skipped"] = g_std.skipped
        info["k_skipped"] = k_std.skipped
        info["g_branch"] = None if g_std.skipped else g_std.values.tolist()
        info["k_branch"] = None if k_std.skipped else k_std.values.tolist()
        return mix_advantages(g_std, k_std, alpha), info
    if mode == "grpo":
        return grpo_advantage(rewards, eps_num), info
    if mode == "entropic":
        try:
            found = entropic_beta(rewards, gamma, beta_max, beta_tol)
        except UnreachableBudgetError:
            # Constant rewards: no tilting can meet the budget, so the group
            # carries no signal; skip the step rather than fail the run.
            return None, info
        info["beta"] = found.beta
        info["beta_saturated"] = found.saturated
        return entropic_advantage(rewards, found.beta, eps_num), info
    if mode == "maxk":
        std = standardize(pkpo_weights(rewards, k), eps_num, eps_skip)
        info["k_skipped"] = std.skipped
        info["k_branch"] = None if std.skipped else std.values.tolist()
        return std.values, info
    raise ValueError(f"unknown estimator mode {mode!r}")
