"""The profile-batched EPLB evaluator against the per-profile reference.

``phasevolve.tasks.eplb`` assigns, rebalances and scores every profile at
once; ``reference_eplb`` does one profile at a time, expert by expert. The
arithmetic and its order are the same, so assignments, op counts and scores
must be equal exactly, for every descriptor, on heavy-tailed loads, on
integer loads (ties in the sort, in argmin/argmax and in the rebalance rule)
and on loads with zero-load experts.
"""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import reference_eplb as ref
from phasevolve.tasks.eplb import (
    HeuristicDescriptor,
    Placement,
    SortMode,
    WorkloadProfile,
    eplb_assign,
    eplb_score,
)

DESCRIPTORS = [
    HeuristicDescriptor(sort_mode, placement, passes, window)
    for sort_mode, placement, passes, window in itertools.product(
        SortMode, Placement, range(4), range(1, 5)
    )
]
LOAD_KINDS = ("pareto", "integer", "zeros")


def make_loads(kind: str, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    if kind == "pareto":
        loads = 1.0 + rng.pareto(2.0, size=shape)
    elif kind == "integer":
        loads = rng.integers(0, 4, size=shape).astype(np.float64)
    else:
        loads = rng.pareto(1.0, size=shape) * (rng.random(shape) < 0.5)
    # A profile needs one positive load.
    loads[np.arange(shape[0]), rng.integers(0, shape[1], size=shape[0])] += 1.0
    return loads


def assert_matches_reference(h: HeuristicDescriptor, w: WorkloadProfile) -> None:
    assignment, ops = eplb_assign(h, w)
    want_assignment, want_ops = ref.eplb_assign(h, w)
    assert np.array_equal(assignment, want_assignment)
    assert ops == want_ops
    assert isinstance(ops, int)
    c_ref = ref.eplb_assign(HeuristicDescriptor(), w)[1]
    assert eplb_score(assignment, w, ops, c_ref) == ref.eplb_score(
        want_assignment, w, want_ops, c_ref
    )


def test_descriptor_space_is_complete():
    assert len(set(DESCRIPTORS)) == 144


@pytest.mark.parametrize("kind", LOAD_KINDS)
def test_every_descriptor_matches_reference(kind):
    # 37 experts on 6 devices: blocks do not divide evenly.
    w = WorkloadProfile(make_loads(kind, (5, 37), np.random.default_rng(3)), num_devices=6)
    for h in DESCRIPTORS:
        assert_matches_reference(h, w)


@given(
    st.sampled_from(DESCRIPTORS),
    st.sampled_from(LOAD_KINDS),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=300, deadline=None)
def test_batched_matches_reference_fuzzed(h, kind, profiles, experts, devices, seed):
    devices = min(devices, experts)
    w = WorkloadProfile(
        make_loads(kind, (profiles, experts), np.random.default_rng(seed)), num_devices=devices
    )
    assert_matches_reference(h, w)


@given(
    st.sampled_from(LOAD_KINDS),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_score_of_any_valid_assignment_matches_reference(kind, profiles, seed):
    rng = np.random.default_rng(seed)
    experts = int(rng.integers(1, 41))
    devices = int(rng.integers(1, experts + 1))
    w = WorkloadProfile(make_loads(kind, (profiles, experts), rng), num_devices=devices)
    # Any assignment, not only a heuristic's: some devices may stay empty.
    assignment = rng.integers(0, devices, size=(profiles, experts))
    assert eplb_score(assignment, w, 7, 5.0) == ref.eplb_score(assignment, w, 7, 5.0)
