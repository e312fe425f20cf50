"""Per-profile reference implementation of the EPLB evaluator.

This is the original expert-by-expert code: each profile is sorted, placed
and rebalanced on its own, and scored with one ``bincount`` per profile.
``phasevolve.tasks.eplb`` runs the same steps across the whole profile
axis; the oracle tests require both to agree exactly. ``eplb_assign`` and
``eplb_score`` share no code with the package.

``staged_assign`` and ``staged_score`` compose the package's own stages
for one descriptor at a time, every row under the descriptor's swap
window, where ``EplbTask``'s sweep runs each pass once over the rows of
all four windows. The unit tests read known instances from them, and the
oracle tests check them against the per-profile code.

``save_profile`` writes a profile in the format ``WorkloadProfile.load``
reads.

``brute_force_balance`` is the exact optimum the greedy placement is
checked against.
"""

from __future__ import annotations

import math

import numpy as np

from phasevolve.tasks import eplb
from phasevolve.tasks.eplb import HeuristicDescriptor, Placement, SortMode, WorkloadProfile


def assign_one(
    h: HeuristicDescriptor, loads: np.ndarray, num_devices: int
) -> tuple[np.ndarray, int]:
    num_experts = loads.size
    ops = 0

    if h.sort_mode is SortMode.DESCENDING_LOAD:
        order = np.argsort(-loads, kind="stable")
        ops += num_experts * max(1, math.ceil(math.log2(max(num_experts, 2))))
    elif h.sort_mode is SortMode.ASCENDING_LOAD:
        order = np.argsort(loads, kind="stable")
        ops += num_experts * max(1, math.ceil(math.log2(max(num_experts, 2))))
    else:
        order = np.arange(num_experts)

    device = np.empty(num_experts, dtype=np.int64)
    device_loads = np.zeros(num_devices)
    if h.placement is Placement.GREEDY_LEAST_LOADED:
        for expert in order:
            dest = int(np.argmin(device_loads))
            device[expert] = dest
            device_loads[dest] += loads[expert]
            ops += num_devices + 1
    elif h.placement is Placement.ROUND_ROBIN:
        for position, expert in enumerate(order):
            dest = position % num_devices
            device[expert] = dest
            device_loads[dest] += loads[expert]
            ops += 1
    else:  # Placement.BLOCKED: contiguous chunks of the chosen order
        block = math.ceil(num_experts / num_devices)
        for position, expert in enumerate(order):
            dest = min(position // block, num_devices - 1)
            device[expert] = dest
            device_loads[dest] += loads[expert]
            ops += 1

    for _ in range(h.rebalance_passes):
        hot = int(np.argmax(device_loads))
        cold = int(np.argmin(device_loads))
        ops += 2 * num_devices
        if hot == cold:
            break
        resident = np.flatnonzero(device == hot)
        ops += resident.size
        candidates = resident[np.argsort(-loads[resident], kind="stable")][: h.swap_window]
        moved = False
        for expert in candidates:
            ops += 2
            new_peak = max(
                device_loads[hot] - loads[expert], device_loads[cold] + loads[expert]
            )
            if new_peak < device_loads[hot]:
                device[expert] = cold
                device_loads[hot] -= loads[expert]
                device_loads[cold] += loads[expert]
                ops += 1
                moved = True
                break
        if not moved:
            break

    return device, ops


def eplb_assign(h: HeuristicDescriptor, w: WorkloadProfile) -> tuple[np.ndarray, int]:
    assignment = np.empty((w.num_profiles, w.num_experts), dtype=np.int64)
    total_ops = 0
    for p in range(w.num_profiles):
        assignment[p], ops = assign_one(h, w.loads[p], w.num_devices)
        total_ops += ops
    return assignment, total_ops


def eplb_score(
    assignment: np.ndarray, w: WorkloadProfile, op_count: int, c_ref: float
) -> tuple[float, float, float]:
    balance_terms = []
    for p in range(w.num_profiles):
        device_loads = np.bincount(
            assignment[p], weights=w.loads[p], minlength=w.num_devices
        )[: w.num_devices]
        peak = device_loads.max()
        if peak <= 0:
            raise ValueError(f"profile {p} has zero max device load")
        balance_terms.append(device_loads.mean() / peak)
    balancedness = float(np.mean(balance_terms))
    if op_count <= 0:
        raise ValueError(f"op_count must be positive, got {op_count}")
    speed = min(c_ref / op_count, 1.0)
    return balancedness, speed, 0.5 * (balancedness + speed)


def staged_assign(h: HeuristicDescriptor, w: WorkloadProfile) -> tuple[np.ndarray, int]:
    """h's assignment and op count from the package's stages: place, then
    h's rebalance passes, each on the rows the last one moved, until no row
    is left. Every row tries h's swap window."""
    device, device_loads, ops = eplb.eplb_place(h.sort_mode, h.placement, w)
    active = np.arange(w.num_profiles)
    window = np.full(w.num_profiles, h.swap_window)
    for _ in range(h.rebalance_passes):
        if active.size == 0:
            break
        device, device_loads, active, row_ops = eplb.eplb_rebalance_pass(
            w, window, device, device_loads, active
        )
        ops += int(row_ops.sum())
    return device, ops


def staged_score(
    assignment: np.ndarray, w: WorkloadProfile, op_count: int, c_ref: float
) -> tuple[float, float, float]:
    """(balancedness, speed, score) from the package's scoring stages."""
    return eplb._with_speed(eplb.eplb_balancedness(assignment, w), op_count, c_ref)


def save_profile(w: WorkloadProfile, path) -> None:
    """Header "E D P", then one line of E loads per profile."""
    with open(path, "w") as fh:
        fh.write(f"{w.num_experts} {w.num_devices} {w.num_profiles}\n")
        for row in w.loads:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


BRUTE_FORCE_MAX_EXPERTS = 12


def brute_force_balance(w: WorkloadProfile) -> np.ndarray:
    """Exact minimum max-device-load per profile, by exhaustive assignment.

    Branch-and-bound over all device choices with symmetry breaking; still
    exponential, so guarded to small expert counts.
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
