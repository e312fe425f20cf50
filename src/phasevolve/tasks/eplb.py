"""Expert-to-device load balancing with evolvable heuristics.

Candidates are small heuristic descriptors (sort order, placement rule,
rebalance budget) decoded from token sequences. The scorer rewards both load
uniformity across devices and cheapness of the assignment procedure, measured
by a deterministic operation count so that runs are exactly reproducible.

The heuristic places each profile (row of the load matrix) on its own, but
every numpy call runs across the profile axis: Python loops only over sort
positions, rebalance passes and swap candidates. Each profile sees the same
float operations in the same order as when placed alone.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from ..policy import TokenSequence
from ..rewards import EvaluationOutcome

BRUTE_FORCE_MAX_EXPERTS = 12


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
        loads = np.asarray(self.loads, dtype=np.float64)
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
                raise ValueError(f"expected header 'E D P', got {header}")
            num_experts, num_devices, num_profiles = (int(x) for x in header)
            if num_profiles < 1 or num_experts < 1:
                raise ValueError(f"header needs E >= 1 and P >= 1, got {header}")
            rows = []
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(x) for x in line.split()])
        loads = np.asarray(rows, dtype=np.float64)
        if loads.shape != (num_profiles, num_experts):
            raise ValueError(
                f"header promises {num_profiles} x {num_experts}, file holds {loads.shape}"
            )
        return cls(loads=loads, num_devices=num_devices)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.num_experts} {self.num_devices} {self.num_profiles}\n")
            for row in self.loads:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def eplb_decode(seq: TokenSequence) -> HeuristicDescriptor:
    """Positional decoding of the first four masked-in tokens.

    Total on the vocabulary and surjective onto the descriptor space; missing
    positions (short or heavily masked sequences) default to 0.
    """
    visible = [int(t) for t, m in zip(seq.tokens, seq.mask) if m]
    visible += [0] * (4 - len(visible))
    return HeuristicDescriptor(
        sort_mode=SortMode(visible[0] % 3),
        placement=Placement(visible[1] % 3),
        rebalance_passes=visible[2] % 4,
        swap_window=1 + visible[3] % 4,
    )


def _device_loads(device: np.ndarray, loads: np.ndarray, num_devices: int) -> np.ndarray:
    """Per-row device load sums; each bin adds its terms in column order from 0.0."""
    rows = device.shape[0]
    flat = (device + np.arange(rows)[:, None] * num_devices).ravel()
    sums = np.bincount(flat, weights=loads.ravel(), minlength=rows * num_devices)
    return sums.reshape(rows, num_devices)


def eplb_assign(
    h: HeuristicDescriptor, w: WorkloadProfile
) -> tuple[np.ndarray, int]:
    """Run the heuristic on every profile at once.

    One row-wise stable sort; greedy placement steps through the sort
    positions, giving each row's expert to that row's least loaded device;
    round-robin and blocked destinations are scattered in one go; rebalance
    passes run on the rows that still improve.

    Returns a (num_profiles x num_experts) device index matrix and the total
    deterministic operation count (the wall-clock proxy), the sum of the
    per-profile counts.
    """
    loads = w.loads
    num_profiles, num_experts = loads.shape
    num_devices = w.num_devices
    rows = np.arange(num_profiles)
    row_ops = 0

    if h.sort_mode is SortMode.UNSORTED:
        order = np.broadcast_to(np.arange(num_experts), loads.shape)
    else:
        key = -loads if h.sort_mode is SortMode.DESCENDING_LOAD else loads
        order = np.argsort(key, axis=1, kind="stable")
        row_ops += num_experts * max(1, math.ceil(math.log2(max(num_experts, 2))))
    ordered_loads = np.take_along_axis(loads, order, axis=1)

    # dest[r, i]: device of the expert at sort position i of row r.
    if h.placement is Placement.GREEDY_LEAST_LOADED:
        # Indexed flat, row r's device d is r * num_devices + d.
        base = rows * num_devices
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
        if h.placement is Placement.ROUND_ROBIN:
            dest_of_position = position % num_devices
        else:  # Placement.BLOCKED: contiguous chunks of the chosen order
            block = math.ceil(num_experts / num_devices)
            dest_of_position = np.minimum(position // block, num_devices - 1)
        dest = np.broadcast_to(dest_of_position, loads.shape)
        device_loads = _device_loads(dest, ordered_loads, num_devices)
        row_ops += num_experts
    device = np.empty(loads.shape, dtype=np.int64)
    np.put_along_axis(device, order, dest, axis=1)
    total_ops = row_ops * num_profiles

    # Rebalance: of the hottest device's swap_window heaviest residents, move
    # the first whose move lowers the peak to the coldest device; a row stops
    # at its first pass that moves nothing.
    active = rows
    for _ in range(h.rebalance_passes):
        if active.size == 0:
            break
        active_loads = device_loads[active]
        hot = active_loads.argmax(axis=1)
        cold = active_loads.argmin(axis=1)
        total_ops += 2 * num_devices * active.size
        differ = hot != cold
        active, hot, cold = active[differ], hot[differ], cold[differ]
        resident = device[active] == hot[:, None]
        residents = resident.sum(axis=1)
        total_ops += int(residents.sum())
        # Heaviest residents first, ties by expert index; others sort last.
        key = np.where(resident, -loads[active], np.inf)
        candidates = np.argsort(key, axis=1, kind="stable")[:, : h.swap_window]
        moved = np.zeros(active.size, dtype=bool)
        for rank in range(candidates.shape[1]):
            trying = ~moved & (rank < residents)
            tries = int(trying.sum())
            if tries == 0:  # stays 0 at later ranks
                break
            total_ops += 2 * tries
            expert = candidates[:, rank]
            load = loads[active, expert]
            hot_load = device_loads[active, hot]
            new_peak = np.maximum(hot_load - load, device_loads[active, cold] + load)
            move = trying & (new_peak < hot_load)
            r, e, load = active[move], expert[move], load[move]
            device[r, e] = cold[move]
            device_loads[r, hot[move]] -= load
            device_loads[r, cold[move]] += load
            total_ops += int(move.sum())
            moved |= move
        active = active[moved]

    return device, total_ops


def eplb_score(
    assignment: np.ndarray,
    w: WorkloadProfile,
    op_count: int,
    c_ref: float,
) -> tuple[float, float, float]:
    """(balancedness, speed, score) for an assignment.

    Balancedness is mean device load over max device load, averaged across
    profiles; speed is the reference op count over the heuristic's op count,
    clamped to 1; the score is their arithmetic mean.
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
    balancedness = float(np.mean(device_loads.mean(axis=1) / peak))
    if op_count <= 0:
        raise ValueError(f"op_count must be positive, got {op_count}")
    speed = min(c_ref / op_count, 1.0)
    return balancedness, speed, 0.5 * (balancedness + speed)


def brute_force_balance(w: WorkloadProfile) -> np.ndarray:
    """Exact minimum max-device-load per profile, by exhaustive assignment.

    Branch-and-bound over all device choices with symmetry breaking; still
    exponential, so guarded to small expert counts. Test oracle only.
    """
    if w.num_experts > BRUTE_FORCE_MAX_EXPERTS:
        raise ValueError(
            f"{w.num_experts} experts exceeds brute-force guard {BRUTE_FORCE_MAX_EXPERTS}"
        )
    out = np.empty(w.num_profiles)
    for p in range(w.num_profiles):
        loads = np.sort(w.loads[p])[::-1]
        best = float(loads.sum())
        device_loads = [0.0] * w.num_devices

        def search(i: int, used: int) -> None:
            nonlocal best
            if i == loads.size:
                best = min(best, max(device_loads))
                return
            tried: set[float] = set()
            for d in range(min(used + 1, w.num_devices)):
                if device_loads[d] in tried:
                    continue
                tried.add(device_loads[d])
                if device_loads[d] + loads[i] >= best:
                    continue
                device_loads[d] += loads[i]
                search(i + 1, max(used, d + 1))
                device_loads[d] -= loads[i]

        search(0, 0)
        out[p] = best
    return out


class EplbTask:
    """Evaluator wiring: decode tokens, assign, score, report a Parsed outcome.

    With ``wall_clock_speed`` the outcome's wall time is that of one
    ``eplb_assign`` call, which places every profile at once.
    """

    name = "eplb"

    def __init__(self, profile: WorkloadProfile, wall_clock_speed: bool = False):
        self.profile = profile
        self.wall_clock_speed = wall_clock_speed
        # Reference cost: the base heuristic (all-zero decoding) on these
        # profiles, so the base candidate scores speed exactly 1.
        _, self.c_ref = eplb_assign(HeuristicDescriptor(), profile)

    def describe(self, seq: TokenSequence) -> dict:
        return eplb_decode(seq).as_dict()

    def evaluate(
        self, seq: TokenSequence, iteration: int, rng: np.random.Generator
    ) -> EvaluationOutcome:
        descriptor = eplb_decode(seq)
        started = time.perf_counter() if self.wall_clock_speed else 0.0
        assignment, ops = eplb_assign(descriptor, self.profile)
        elapsed = time.perf_counter() - started if self.wall_clock_speed else 0.0
        balancedness, speed, score = eplb_score(assignment, self.profile, ops, self.c_ref)
        return EvaluationOutcome.parsed(
            score,
            wall_time=elapsed,
            metrics={"balancedness": balancedness, "speed": speed, "op_count": float(ops)},
        )
