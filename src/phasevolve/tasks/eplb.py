"""Expert-to-device load balancing with evolvable heuristics.

Candidates are small heuristic descriptors (sort order, placement rule,
rebalance budget) decoded from token sequences. The scorer rewards both load
uniformity across devices and cheapness of the assignment procedure, measured
by a deterministic operation count so that runs are exactly reproducible.

The heuristic places each profile (row of the load matrix) on its own, but
every numpy call runs across the profile axis: Python loops only over sort
positions, rebalance passes and swap candidates. Each profile sees the same
float operations in the same order as when placed alone.

The stages are functions a task can resume: ``eplb_place``, then one
``eplb_rebalance_pass`` per rebalance pass, in which each row tries its own
swap window, then ``eplb_balancedness``. ``EplbTask`` is their one
composition: when built, it stacks the profiles once per swap window and
sweeps each (sort mode, placement rule) pair once into a table of all 144
outcomes, one pass per depth over the rows of all four windows; a pair
whose sweep raises is swept again when evaluated (see its docstring).
``tests/reference_eplb.py`` composes the same stages one descriptor at a
time, and holds the per-profile oracle both are checked against.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..policy import TokenSequence
from ..rewards import EvaluationOutcome


class SortMode(enum.Enum):
    DESCENDING_LOAD = 0
    ASCENDING_LOAD = 1
    UNSORTED = 2


class Placement(enum.Enum):
    GREEDY_LEAST_LOADED = 0
    ROUND_ROBIN = 1
    BLOCKED = 2


@dataclass(frozen=True)
class HeuristicDescriptor:
    sort_mode: SortMode = SortMode.DESCENDING_LOAD
    placement: Placement = Placement.GREEDY_LEAST_LOADED
    rebalance_passes: int = 0
    swap_window: int = 1

    def as_dict(self) -> dict:
        return {
            "sort_mode": self.sort_mode.name,
            "placement": self.placement.name,
            "rebalance_passes": self.rebalance_passes,
            "swap_window": self.swap_window,
        }


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-expert demand matrix (num_profiles x num_experts) plus device count."""

    loads: np.ndarray
    num_devices: int

    def __post_init__(self) -> None:
        # A private read-only copy: evaluators memoize on these loads.
        loads = np.array(self.loads, dtype=np.float64)
        loads.flags.writeable = False
        if loads.ndim != 2 or loads.shape[0] < 1:
            raise ValueError(f"need 2-d loads with at least one profile, got shape {loads.shape}")
        object.__setattr__(self, "loads", loads)
        if not 1 <= self.num_devices <= self.num_experts:
            raise ValueError(
                f"need num_experts ({self.num_experts}) >= num_devices ({self.num_devices}) >= 1"
            )
        if np.any(loads < 0) or not np.all(np.isfinite(loads)):
            raise ValueError("loads must be finite and nonnegative")
        if np.any(loads.max(axis=1) <= 0):
            raise ValueError("every profile needs at least one positive load")

    @property
    def num_profiles(self) -> int:
        return self.loads.shape[0]

    @property
    def num_experts(self) -> int:
        return self.loads.shape[1]

    @classmethod
    def generate(
        cls,
        num_profiles: int = 8,
        num_experts: int = 32,
        num_devices: int = 4,
        seed: int = 7,
    ) -> "WorkloadProfile":
        """Synthetic heavy-tailed demand profiles (Pareto tail, seeded)."""
        rng = np.random.default_rng(seed)
        loads = 1.0 + rng.pareto(2.0, size=(num_profiles, num_experts))
        return cls(loads=loads, num_devices=num_devices)

    @classmethod
    def load(cls, path) -> "WorkloadProfile":
        """Read the plain-text format: header "E D P", then P rows of E loads."""
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise ValueError(f"line 1: expected header 'E D P', got {header}")
            try:
                num_experts, num_devices, num_profiles = (int(x) for x in header)
            except ValueError as exc:
                raise ValueError(f"line 1: {exc}") from None
            if num_profiles < 1 or num_experts < 1:
                raise ValueError(f"line 1: header needs E >= 1 and P >= 1, got {header}")
            if not 1 <= num_devices <= num_experts:
                raise ValueError(
                    f"line 1: need num_experts ({num_experts}) >= num_devices ({num_devices}) >= 1"
                )
            rows = []
            for number, line in enumerate(fh, start=2):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) != num_experts:
                    raise ValueError(
                        f"line {number}: expected E = {num_experts} loads, found {len(fields)}"
                    )
                try:
                    row = [float(x) for x in fields]
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
                bad = [x for x in row if not 0.0 <= x < math.inf]  # nan fails both
                if bad:
                    raise ValueError(
                        f"line {number}: profile {len(rows)} holds {bad[0]}; "
                        "loads must be finite and nonnegative"
                    )
                if max(row) <= 0.0:
                    raise ValueError(
                        f"line {number}: profile {len(rows)} holds no positive load; "
                        "every profile needs at least one"
                    )
                rows.append(row)
        loads = np.asarray(rows, dtype=np.float64)
        if loads.shape != (num_profiles, num_experts):
            raise ValueError(
                f"header promises {num_profiles} x {num_experts}, file holds {loads.shape}"
            )
        return cls(loads=loads, num_devices=num_devices)


SWAP_WINDOWS = 4  # a descriptor's swap window is 1 to SWAP_WINDOWS


def _positions(seq: TokenSequence) -> tuple[int, int, int, int]:
    """(sort mode, placement, passes, window - 1) of the first four tokens, missing ones 0."""
    visible = seq.tokens + (0,) * (4 - len(seq.tokens))
    return visible[0] % 3, visible[1] % 3, visible[2] % 4, visible[3] % SWAP_WINDOWS


def eplb_decode(seq: TokenSequence) -> HeuristicDescriptor:
    """Positional decoding of the first four tokens.

    Total on the vocabulary and surjective onto the descriptor space.
    """
    sort_mode, placement, passes, window = _positions(seq)
    return HeuristicDescriptor(SortMode(sort_mode), Placement(placement), passes, window + 1)


def _device_loads(device: np.ndarray, loads: np.ndarray, num_devices: int) -> np.ndarray:
    """Per-row device load sums; each bin adds its terms in column order from 0.0."""
    rows = device.shape[0]
    flat = (device + np.arange(rows)[:, None] * num_devices).ravel()
    sums = np.bincount(flat, weights=loads.ravel(), minlength=rows * num_devices)
    return sums.reshape(rows, num_devices)


def eplb_place(
    sort_mode: SortMode, placement: Placement, w: WorkloadProfile
) -> tuple[np.ndarray, np.ndarray, int]:
    """The heuristic's first stage on every profile at once: sort, then place.

    One row-wise stable sort; greedy placement steps through the sort
    positions, giving each row's expert to that row's least loaded device;
    round-robin and blocked destinations are scattered in one go.

    Returns the (num_profiles x num_experts) device index matrix, the
    (num_profiles x num_devices) device loads and the sort's and placement's
    operation count.
    """
    loads = w.loads
    num_profiles, num_experts = loads.shape
    num_devices = w.num_devices
    row_ops = 0

    if sort_mode is SortMode.UNSORTED:
        order = np.broadcast_to(np.arange(num_experts), loads.shape)
    else:
        key = -loads if sort_mode is SortMode.DESCENDING_LOAD else loads
        order = np.argsort(key, axis=1, kind="stable")
        row_ops += num_experts * max(1, math.ceil(math.log2(max(num_experts, 2))))
    ordered_loads = np.take_along_axis(loads, order, axis=1)

    # dest[r, i]: device of the expert at sort position i of row r.
    if placement is Placement.GREEDY_LEAST_LOADED:
        # Indexed flat, row r's device d is r * num_devices + d.
        base = np.arange(num_profiles) * num_devices
        flat_dest = np.empty((num_experts, num_profiles), dtype=np.int64)
        device_loads = np.zeros((num_profiles, num_devices))
        flat_loads = device_loads.reshape(-1)
        for position, step_loads in enumerate(ordered_loads.T):
            flat = device_loads.argmin(axis=1) + base
            flat_dest[position] = flat
            flat_loads[flat] += step_loads
        dest = flat_dest.T - base[:, None]
        row_ops += num_experts * (num_devices + 1)
    else:
        position = np.arange(num_experts)
        if placement is Placement.ROUND_ROBIN:
            dest_of_position = position % num_devices
        else:  # Placement.BLOCKED: contiguous chunks of the chosen order
            block = math.ceil(num_experts / num_devices)
            dest_of_position = np.minimum(position // block, num_devices - 1)
        dest = np.broadcast_to(dest_of_position, loads.shape)
        device_loads = _device_loads(dest, ordered_loads, num_devices)
        row_ops += num_experts
    device = np.empty(loads.shape, dtype=np.int64)
    np.put_along_axis(device, order, dest, axis=1)
    return device, device_loads, row_ops * num_profiles


def eplb_rebalance_pass(
    w: WorkloadProfile,
    window: np.ndarray,
    device: np.ndarray,
    device_loads: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One rebalance pass on the rows in active.

    Of the hottest device's window[r] heaviest residents, row r moves the
    first whose move lowers the peak to the coldest device. A row moves at
    most once per pass, and stops at its first pass that moves nothing.

    Returns new device index and device load matrices, the rows that moved
    (the next pass's active rows) and each row's operation count for the
    pass, 0 outside active.

    After DESCENDING_LOAD + GREEDY_LEAST_LOADED no pass moves an expert, so
    the passes only add ops: the hottest device's last expert, its lightest,
    went to the then coldest device, so each resident weighs at least peak
    minus coldest (monotone float sums keep this under rounding).
    """
    loads = w.loads
    row_ops = np.zeros(loads.shape[0], dtype=np.int64)
    row_ops[active] = 2 * w.num_devices
    active_loads = device_loads[active]
    hot = active_loads.argmax(axis=1)
    cold = active_loads.argmin(axis=1)
    differ = hot != cold
    active, hot, cold = active[differ], hot[differ], cold[differ]
    resident = device[active] == hot[:, None]
    residents = resident.sum(axis=1)
    tries = np.minimum(window[active], residents)  # the ranks each row may try
    # Heaviest residents first, ties by expert index; others sort last.
    key = np.where(resident, -loads[active], np.inf)
    candidates = np.argsort(key, axis=1, kind="stable")[:, :SWAP_WINDOWS]
    hot_load, cold_load = device_loads[active, hot], device_loads[active, cold]
    first = tries.copy()  # each row's moving rank; tries where none moves
    for rank, expert in enumerate(candidates.T):
        trying = rank < first
        if not trying.any():
            break
        load = loads[active, expert]
        first[trying & (np.maximum(hot_load - load, cold_load + load) < hot_load)] = rank
    move = first < tries
    row_ops[active] += residents + 2 * np.minimum(first + 1, tries) + move
    moved, expert = active[move], candidates[move, first[move]]
    device, device_loads = device.copy(), device_loads.copy()
    device[moved, expert] = cold[move]
    device_loads[moved, hot[move]] -= loads[moved, expert]
    device_loads[moved, cold[move]] += loads[moved, expert]
    return device, device_loads, moved, row_ops


def eplb_balancedness(assignment: np.ndarray, w: WorkloadProfile) -> np.ndarray:
    """Each profile's mean device load over its max device load.

    The device loads are summed again from the assignment, in column order.
    """
    assignment = np.asarray(assignment)
    if assignment.shape != w.loads.shape:
        raise ValueError(
            f"assignment shape {assignment.shape} must match loads {w.loads.shape}"
        )
    outside = np.flatnonzero(((assignment < 0) | (assignment >= w.num_devices)).any(axis=1))
    if outside.size:
        raise ValueError(
            f"profile {outside[0]} assigns an expert to a device outside [0, {w.num_devices})"
        )
    device_loads = _device_loads(assignment, w.loads, w.num_devices)
    peak = device_loads.max(axis=1)
    idle = np.flatnonzero(peak <= 0)
    if idle.size:
        raise ValueError(f"profile {idle[0]} has zero max device load")
    return np.add.reduce(device_loads, axis=1) / w.num_devices / peak


def _with_speed(balance: np.ndarray, op_count: int, c_ref: float) -> tuple[float, float, float]:
    """(balancedness, speed, score): balancedness is the mean of the
    profiles' balances, speed is the reference op count c_ref over op_count,
    clamped to 1, and the score is the mean of the two."""
    if op_count <= 0:
        raise ValueError(f"op_count must be positive, got {op_count}")
    balancedness = float(np.add.reduce(balance) / balance.size)
    speed = min(c_ref / op_count, 1.0)
    return balancedness, speed, 0.5 * (balancedness + speed)


class EplbTask:
    """Evaluator wiring: decode tokens, look the outcome up, report it.

    The speed term counts operations rather than timing them, so an outcome
    depends only on the decoded descriptor and the read-only profiles. The
    task computes the outcomes of all 144 descriptors when it is built and
    keeps that table and nothing else: ``evaluate`` reads it and runs no
    stage. Use one instance per run.

    One sweep per (sort mode, placement rule) pair fills its 16 entries over
    pass depths 0 to 3. The task keeps the profiles stacked once per swap
    window, so the sweep's rows are every (window, profile): it tiles the
    pair's placement and, at each depth, records each window's outcome from
    its block of rows and then runs one ``eplb_rebalance_pass`` on the rows
    still active. A window's op count is the placement's plus its block's
    pass ops. Once no row is active no pass runs, and a pass that moves no
    row leaves the balances as they were, so they are scored again only
    after a pass that moved a row.

    ``c_ref`` is the op count of the DESCENDING_LOAD + GREEDY_LEAST_LOADED
    placement, taken before any outcome: no score exists without it, so it
    is the one stage call whose error ends construction. A sweep that raises
    stores nothing for its pair, and the next ``evaluate`` of one of the
    pair's descriptors sweeps it again, so an error that persists reaches
    every such call and one that passes heals.
    """

    name = "eplb"

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile
        # Row r of the stacked profiles is profile r % P under window r // P + 1.
        stacked = np.tile(profile.loads, (SWAP_WINDOWS, 1))
        self._rows = WorkloadProfile(stacked, profile.num_devices)
        self._window = np.repeat(np.arange(1, SWAP_WINDOWS + 1), profile.num_profiles)
        # Keyed by the four decoded positions, as ``_positions`` gives them.
        self._outcomes: dict[tuple[int, int, int, int], EvaluationOutcome] = {}
        # Reference cost: the base heuristic (all-zero decoding) on these
        # profiles, so the base candidate scores speed exactly 1. Its zero
        # rebalance passes add no ops to its placement's.
        base_pair = (SortMode.DESCENDING_LOAD, Placement.GREEDY_LEAST_LOADED)
        base = eplb_place(*base_pair, profile)
        self.c_ref = base[2]
        for pair in itertools.product(SortMode, Placement):
            try:
                self._sweep(*pair, base if pair == base_pair else None)
            except Exception:
                pass  # this pair's entries stay empty; evaluate sweeps it again

    def _sweep(self, sort_mode: SortMode, placement: Placement, placed: tuple | None = None):
        """Store the outcomes of the pair's 16 descriptors, or none if a stage raises."""
        w = self._rows
        device, device_loads, ops = placed or eplb_place(sort_mode, placement, self.profile)
        device = np.tile(device, (SWAP_WINDOWS, 1))
        device_loads = np.tile(device_loads, (SWAP_WINDOWS, 1))
        ops = [ops] * SWAP_WINDOWS  # each window's op count
        active = np.arange(w.num_profiles)
        balance = eplb_balancedness(device, w)
        outcomes = {}
        for passes in range(4):
            for window, (block, n) in enumerate(zip(balance.reshape(SWAP_WINDOWS, -1), ops)):
                balancedness, speed, score = _with_speed(block, n, self.c_ref)
                metrics = {"balancedness": balancedness, "speed": speed, "op_count": float(n)}
                key = (sort_mode.value, placement.value, passes, window)
                outcomes[key] = EvaluationOutcome.parsed(score, metrics=metrics)
            if passes < 3 and active.size:  # once every row has stopped: no pass, no ops
                device, device_loads, active, row_ops = eplb_rebalance_pass(
                    w, self._window, device, device_loads, active
                )
                pass_ops = row_ops.reshape(SWAP_WINDOWS, -1).sum(axis=1).tolist()
                ops = [n + m for n, m in zip(ops, pass_ops)]
                if active.size:  # some row moved
                    balance = eplb_balancedness(device, w)
        self._outcomes.update(outcomes)

    def describe(self, seq: TokenSequence) -> dict:
        return eplb_decode(seq).as_dict()

    def evaluate(
        self, seq: TokenSequence, iteration: int, rng: np.random.Generator
    ) -> EvaluationOutcome:
        key = _positions(seq)
        outcome = self._outcomes.get(key)
        if outcome is None:  # the pair's sweep raised: sweep it again
            self._sweep(SortMode(key[0]), Placement(key[1]))
            outcome = self._outcomes[key]
        return outcome
