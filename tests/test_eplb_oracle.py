"""The profile-batched EPLB evaluator against the per-profile reference.

``phasevolve.tasks.eplb`` assigns, rebalances and scores every profile at
once; ``reference_eplb`` does one profile at a time, expert by expert. The
arithmetic and its order are the same, so assignments, op counts and scores
must be equal exactly, for every descriptor, on heavy-tailed loads, on
integer loads (ties in the sort, in argmin/argmax and in the rebalance rule)
and on loads with zero-load experts. The package's stages are composed with
no memo by ``reference_eplb.staged_assign`` and ``staged_score``.

``EplbTask`` computes the outcomes of all 144 descriptors when it is built,
in one sweep per (sort mode, placement rule) pair that analyses each pass
state once for every swap window and scores each assignment's balancedness
once. The table tests below require each outcome to equal the per-profile
oracle's (``reference_eplb.eplb_assign``, then ``eplb_score``), which
shares no code with the task, in any order of evaluation. ``StageLog``
watches the stages through recording wrappers, installed before the task is
built: which states a sweep passes on, what it scores, and that a pair
whose sweep raised is swept again, and nothing else, when it is evaluated.
"""

import itertools
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import reference_eplb as ref
from phasevolve.config import parse_config_text
from phasevolve.orchestrator import run_evolution
from phasevolve.policy import TokenSequence
from phasevolve.rewards import EvaluationOutcome
from phasevolve.tasks import eplb, make_task
from phasevolve.tasks.eplb import (
    EplbTask,
    HeuristicDescriptor,
    Placement,
    SortMode,
    WorkloadProfile,
)
from phasevolve.trace import read_trace

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
    assignment, ops = ref.staged_assign(h, w)
    want_assignment, want_ops = ref.eplb_assign(h, w)
    assert np.array_equal(assignment, want_assignment)
    assert ops == want_ops
    assert isinstance(ops, int)
    c_ref = ref.eplb_assign(HeuristicDescriptor(), w)[1]
    assert ref.staged_score(assignment, w, ops, c_ref) == ref.eplb_score(
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
    assert ref.staged_score(assignment, w, 7, 5.0) == ref.eplb_score(assignment, w, 7, 5.0)


# ----------------------------------------------------------------- the table


def seq_for(h: HeuristicDescriptor) -> TokenSequence:
    """A token sequence that decodes to h."""
    tokens = np.array(
        [h.sort_mode.value, h.placement.value, h.rebalance_passes, h.swap_window - 1, 0, 0]
    )
    return TokenSequence(tokens, np.zeros(tokens.size))


def memo_profile() -> WorkloadProfile:
    # Integer loads give ties; 29 experts on 5 devices leave uneven blocks.
    return WorkloadProfile(make_loads("integer", (4, 29), np.random.default_rng(11)), 5)


_ORACLE_OUTCOMES: dict[tuple, dict[HeuristicDescriptor, EvaluationOutcome]] = {}


def fresh_outcome(h: HeuristicDescriptor, w: WorkloadProfile) -> EvaluationOutcome:
    """h's outcome from the per-profile oracle, which shares no code with the
    task. Every descriptor's is computed the first time a profile is asked."""
    key = (w.loads.tobytes(), w.loads.shape, w.num_devices)
    if key not in _ORACLE_OUTCOMES:
        c_ref = ref.eplb_assign(HeuristicDescriptor(), w)[1]
        outcomes = _ORACLE_OUTCOMES[key] = {}
        for each in DESCRIPTORS:
            assignment, ops = ref.eplb_assign(each, w)
            balancedness, speed, score = ref.eplb_score(assignment, w, ops, c_ref)
            outcomes[each] = EvaluationOutcome.parsed(
                score,
                metrics={"balancedness": balancedness, "speed": speed, "op_count": float(ops)},
            )
    return _ORACLE_OUTCOMES[key][h]


def assert_same_outcome(got, want) -> None:
    assert got.status is want.status
    assert got.value == want.value
    assert got.metrics == want.metrics


def assert_task_matches_reference(w: WorkloadProfile) -> None:
    """The staged composition and the task, each window through its own
    entry of the pass analysis, against the per-profile oracle."""
    task, rng = EplbTask(w), np.random.default_rng(0)
    for h in DESCRIPTORS:
        assert_matches_reference(h, w)
        assert_same_outcome(task.evaluate(seq_for(h), 0, rng), fresh_outcome(h, w))


@pytest.mark.parametrize("experts, devices", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
@pytest.mark.parametrize("kind", LOAD_KINDS)
def test_fewer_experts_than_swap_windows_match_reference(kind, experts, devices):
    # A pass has fewer ranks to try than the widest window.
    w = WorkloadProfile(
        make_loads(kind, (5, experts), np.random.default_rng(experts)), num_devices=devices
    )
    assert_task_matches_reference(w)


@pytest.mark.parametrize("devices", [2, 3, 4, 5])
def test_equal_loads_match_reference(devices):
    # All-equal rows place evenly on 2, 3 and 4 devices, so hot == cold and
    # those rows leave the first pass; the heavy-tailed rows keep moving.
    loads = np.vstack([np.ones((2, 12)), make_loads("pareto", (3, 12), np.random.default_rng(5))])
    assert_task_matches_reference(WorkloadProfile(loads, num_devices=devices))


def test_memoized_outcomes_equal_fresh_instances_in_any_order():
    w = memo_profile()
    want = {h: fresh_outcome(h, w) for h in DESCRIPTORS}
    forward, backward = EplbTask(w), EplbTask(w)
    rng = np.random.default_rng(0)
    for order, task in ((DESCRIPTORS, forward), (DESCRIPTORS[::-1], backward)):
        for h in order:
            assert_same_outcome(task.evaluate(seq_for(h), 0, rng), want[h])
    for h in DESCRIPTORS[::-1]:  # the same table, read again
        assert_same_outcome(forward.evaluate(seq_for(h), 0, rng), want[h])


STAGES = ("eplb_place", "eplb_rebalance_windows", "eplb_balancedness")
# A pair other than the reference one, whose placement construction needs.
TARGET = (SortMode.ASCENDING_LOAD, Placement.BLOCKED)


class StageLog:
    """Records every call of the three EPLB stages while the patch holds.

    Each event is [stage name, arguments, result or None if it raised]. The
    log keeps the arrays, so their ids stay unique while it lives, and maps
    every assignment to the (sort mode, placement rule) pair it came from.
    ``fail(name, args)``, if given, runs before each stage and may raise.
    """

    def __init__(self, patch: pytest.MonkeyPatch, fail=None):
        self.events: list[list] = []
        self._pair: dict[int, tuple[SortMode, Placement]] = {}
        for name in STAGES:
            patch.setattr(eplb, name, self._recorded(name, getattr(eplb, name), fail))

    def _recorded(self, name, stage, fail):
        def call(*args):
            event = [name, args, None]
            self.events.append(event)
            if fail is not None:
                fail(name, args)
            event[2] = result = stage(*args)
            if name == "eplb_place":
                self._pair[id(result[0])] = args[:2]
            elif name == "eplb_rebalance_windows":
                for device, *_ in result:
                    self._pair[id(device)] = self._pair[id(args[1])]
            return result

        return call

    def pair_of(self, assignment: np.ndarray) -> tuple[SortMode, Placement]:
        return self._pair[id(assignment)]

    def calls(self, name: str) -> list[tuple]:
        return [(args, result) for stage, args, result in self.events if stage == name]


def in_order(order: str) -> list[HeuristicDescriptor]:
    if order == "shuffled":
        return [DESCRIPTORS[i] for i in np.random.default_rng(3).permutation(144)]
    return sorted(
        DESCRIPTORS, key=lambda h: h.rebalance_passes, reverse=order == "passes-descending"
    )


def eplb_wide_profile() -> WorkloadProfile:
    # The benchmark's eplb-wide shape: 16 profiles of 128 experts on 16 devices.
    return WorkloadProfile.generate(num_profiles=16, num_experts=128, num_devices=16, seed=7)


def test_each_stage_runs_once_per_key(monkeypatch):
    w = memo_profile()
    # What a sweep of all 144 descriptors must run, enumerated from the
    # per-profile oracle. Windows that move the same rows from one state share
    # the next state, so a state is its pair plus the rows each pass moved on
    # the way to it; a pass that moves none keeps the state it started from,
    # and no later pass runs. One windows call per state a pass starts from
    # (depth 0 to 2), and one balancedness per state.
    expanded, states = set(), set()
    for sort_mode, placement, window in itertools.product(SortMode, Placement, range(1, 5)):
        devices = [
            ref.eplb_assign(HeuristicDescriptor(sort_mode, placement, passes, window), w)[0]
            for passes in range(4)
        ]
        state = (sort_mode, placement)
        states.add(state)
        for before, after in itertools.pairwise(devices):
            expanded.add(state)
            moved = tuple(np.flatnonzero((after != before).any(axis=1)))
            if not moved:
                break
            state += (moved,)
            states.add(state)
    # Fewer windows calls than (pair, window, depth) passes: 9 serve depth 1.
    assert 9 < len(expanded) < 108
    log = StageLog(monkeypatch)
    # Built under the log: the reference cost's placement is one of the 9.
    task = EplbTask(w)
    want = {
        "eplb_place": 9, "eplb_rebalance_windows": len(expanded), "eplb_balancedness": len(states)
    }
    assert {name: len(log.calls(name)) for name in STAGES} == want
    rng = np.random.default_rng(0)
    for h in DESCRIPTORS:
        task.evaluate(seq_for(h), 0, rng)
    assert {name: len(log.calls(name)) for name in STAGES} == want


@pytest.mark.parametrize("shape", ["memo", "eplb-wide"])
def test_windows_that_move_the_same_rows_share_one_assignment(shape):
    w = memo_profile() if shape == "memo" else eplb_wide_profile()
    with pytest.MonkeyPatch.context() as patch:
        log = StageLog(patch)
        EplbTask(w)
    placed = [device for _, (device, _, _) in log.calls("eplb_place")]
    analysed = log.calls("eplb_rebalance_windows")
    shared = 0
    for _, windows in analysed:
        for (a, _, moved_a, _), (b, _, moved_b, _) in itertools.combinations(windows, 2):
            assert (a is b) == np.array_equal(moved_a, moved_b)
            shared += a is b and moved_a.size > 0
    assert shared > 0
    # Each state is analysed once, with its active rows: a placement with
    # every row, or a window's result with the rows that window moved.
    moved_into = {
        id(device): (device, moved)
        for _, windows in analysed
        for device, _, moved, _ in windows
        if moved.size
    }
    passed_on = [args[1] for args, _ in analysed]
    assert len({id(device) for device in passed_on}) == len(passed_on)
    for (_, device, _, active), _ in analysed:
        if id(device) in moved_into:
            assert active is moved_into[id(device)][1]
        else:
            assert any(device is each for each in placed)
            assert np.array_equal(active, np.arange(w.num_profiles))
    # One balancedness per assignment object: each placement, each array a
    # window moved rows into that a window's state took (never a copy), and
    # every state passed on. Objects that windows reached through different
    # moves may still hold equal bytes.
    scored = [args[0] for args, _ in log.calls("eplb_balancedness")]
    assert len({id(device) for device in scored}) == len(scored)
    assert all(id(device) in moved_into or any(device is p for p in placed) for device in scored)
    assert {id(device) for device in passed_on} <= {id(device) for device in scored}


@pytest.mark.parametrize("placement", Placement)
@pytest.mark.parametrize("sort_mode", SortMode)
def test_rebalance_leaves_the_memoized_placement_unchanged(sort_mode, placement):
    w = memo_profile()
    rebalanced = HeuristicDescriptor(sort_mode, placement, 3, 4)
    placed_only = HeuristicDescriptor(sort_mode, placement, 0, 1)
    task = EplbTask(w)
    rng = np.random.default_rng(0)
    task.evaluate(seq_for(rebalanced), 0, rng)
    assert_same_outcome(task.evaluate(seq_for(placed_only), 0, rng), fresh_outcome(placed_only, w))


def test_rebalance_moves_experts_on_the_memo_profile():
    # Otherwise the test above could not see a write into a placement.
    w = memo_profile()
    moved = [
        not np.array_equal(
            ref.eplb_assign(HeuristicDescriptor(s, p, 3, 4), w)[0],
            ref.eplb_assign(HeuristicDescriptor(s, p, 0, 1), w)[0],
        )
        for s, p in itertools.product(SortMode, Placement)
    ]
    assert sum(moved) >= 3


@given(
    st.sampled_from(LOAD_KINDS),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_greedy_on_descending_loads_leaves_rebalance_nothing_to_move(
    kind, profiles, experts, devices, seed
):
    # The reason is in eplb_rebalance_windows's docstring. The passes only add ops, so
    # these 12 descriptors score below the same pair with no passes.
    w = WorkloadProfile(
        make_loads(kind, (profiles, experts), np.random.default_rng(seed)),
        num_devices=min(devices, experts),
    )
    placed = eplb.eplb_place(SortMode.DESCENDING_LOAD, Placement.GREEDY_LEAST_LOADED, w)
    for passes, window in itertools.product(range(1, 4), range(1, 5)):
        h = HeuristicDescriptor(
            SortMode.DESCENDING_LOAD, Placement.GREEDY_LEAST_LOADED, passes, window
        )
        device, ops = ref.staged_assign(h, w)
        assert np.array_equal(device, placed[0])
        assert ops > placed[2]


def test_memoized_placement_is_read_only():
    with pytest.MonkeyPatch.context() as patch:
        log = StageLog(patch)
        EplbTask(memo_profile())
    placements = log.calls("eplb_place")
    assert len(placements) == 9
    for _, (device, device_loads, _) in placements:
        with pytest.raises(ValueError):
            device[0, 0] = 1
        with pytest.raises(ValueError):
            device_loads[0, 0] = 1.0


def test_an_evaluation_that_raises_is_not_memoized(monkeypatch):
    # The scorer fails on the target pair's placement three times: while the
    # task is built and in the next two evaluations of the pair; then it heals.
    w = memo_profile()
    failures = []

    def fail(name, args):
        if name == "eplb_balancedness" and log.pair_of(args[0]) == TARGET and len(failures) < 3:
            failures.append(1)
            raise RuntimeError("scorer crashed")

    log = StageLog(monkeypatch, fail)
    task = EplbTask(w)
    assert len(failures) == 1
    rng = np.random.default_rng(0)
    target = [h for h in DESCRIPTORS if (h.sort_mode, h.placement) == TARGET]
    for h in target[-1], target[0]:
        with pytest.raises(RuntimeError, match="^scorer crashed$"):
            task.evaluate(seq_for(h), 0, rng)
    for h in DESCRIPTORS:
        assert_same_outcome(task.evaluate(seq_for(h), 0, rng), fresh_outcome(h, w))
    # Only the target pair was swept again: twice failing, once healing.
    again = [args[:2] for args, _ in log.calls("eplb_place")[9:]]
    assert again == [TARGET] * 3


def test_evaluate_draws_nothing_and_ignores_the_iteration():
    # The premise of the table: an outcome depends on the descriptor alone.
    w = memo_profile()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    early, late = EplbTask(w), EplbTask(w)
    for h in DESCRIPTORS:
        assert_same_outcome(
            late.evaluate(seq_for(h), 10**6, rng), early.evaluate(seq_for(h), 0, rng)
        )
    assert rng.bit_generator.state == state


def test_runs_with_fresh_or_reused_tasks_write_identical_traces(tmp_path):
    text = (Path(__file__).resolve().parents[1] / "configs" / "eplb.cfg").read_text()
    config = parse_config_text(text + "\niterations = 8\n")
    reused = make_task(config)
    traces = set()
    for run, task in enumerate([make_task(config), make_task(config), reused, reused]):
        path = tmp_path / f"trace-{run}.jsonl"
        run_evolution(config, task, path)
        traces.add(path.read_bytes())
    assert len(traces) == 1


def test_an_evaluation_that_raises_leaves_describe_correct(monkeypatch):
    w = memo_profile()
    before = HeuristicDescriptor(SortMode.UNSORTED, Placement.ROUND_ROBIN, 1, 2)
    h = HeuristicDescriptor(*TARGET, 2, 3)

    def fail(name, args):
        if name == "eplb_balancedness" and log.pair_of(args[0]) == TARGET:
            raise RuntimeError("scorer crashed")

    log = StageLog(monkeypatch, fail)
    task = EplbTask(w)
    rng = np.random.default_rng(0)
    assert_same_outcome(task.evaluate(seq_for(before), 0, rng), fresh_outcome(before, w))
    for _ in range(2):  # the error persists, and reaches every evaluation
        with pytest.raises(RuntimeError, match="^scorer crashed$"):
            task.evaluate(seq_for(h), 0, rng)
        assert task.describe(seq_for(h)) == h.as_dict()
        assert task.describe(seq_for(before)) == before.as_dict()


def test_a_pass_that_raises_leaves_the_chain_resumable(monkeypatch):
    # The target pair's first pass from a state that a pass moved rows into
    # (depth 2) fails while the task is built and in the next evaluation.
    w = memo_profile()
    h = HeuristicDescriptor(*TARGET, 3, 3)
    one = replace(h, rebalance_passes=1)
    failures = []

    def fail(name, args):
        if name != "eplb_rebalance_windows" or log.pair_of(args[1]) != TARGET:
            return
        placed = [device for _, (device, _, _) in log.calls("eplb_place")]
        if not any(args[1] is device for device in placed) and len(failures) < 2:
            failures.append(1)
            raise RuntimeError("pass crashed")

    log = StageLog(monkeypatch, fail)
    task = EplbTask(w)
    assert len(failures) == 1
    rng = np.random.default_rng(0)
    # The pair stored nothing, not even the outcome of its first pass.
    with pytest.raises(RuntimeError, match="^pass crashed$"):
        task.evaluate(seq_for(one), 0, rng)
    swept = len(log.events)
    assert_same_outcome(task.evaluate(seq_for(h), 0, rng), fresh_outcome(h, w))
    again = log.events[swept:]
    assert (again[0][0], again[0][1][:2]) == ("eplb_place", TARGET)
    assert all(result is not None for _, _, result in again)
    assert_same_outcome(task.evaluate(seq_for(one), 0, rng), fresh_outcome(one, w))
    assert len(log.events) == swept + len(again)  # the healed sweep filled the pair


@pytest.mark.parametrize("order", ["passes-descending", "passes-ascending", "shuffled"])
def test_chains_give_fresh_outcomes_at_the_eplb_wide_shape(order):
    w = eplb_wide_profile()
    task = EplbTask(w)
    rng = np.random.default_rng(0)
    for h in in_order(order):
        assert_same_outcome(task.evaluate(seq_for(h), 0, rng), fresh_outcome(h, w))


@pytest.mark.parametrize("order", ["passes-descending", "passes-ascending", "shuffled"])
def test_evaluations_after_construction_run_no_stage(order, monkeypatch):
    w = eplb_wide_profile()
    task = EplbTask(w)

    def forbidden(*args):
        pytest.fail("an evaluation ran an EPLB stage")

    for name in STAGES:
        monkeypatch.setattr(eplb, name, forbidden)
    rng = np.random.default_rng(0)
    for h in in_order(order):
        assert_same_outcome(task.evaluate(seq_for(h), 0, rng), fresh_outcome(h, w))


def test_every_pass_state_is_read_only():
    with pytest.MonkeyPatch.context() as patch:
        log = StageLog(patch)
        EplbTask(memo_profile())
    analysed = log.calls("eplb_rebalance_windows")
    assert len(analysed) > 9  # some state a pass moved rows into is passed on
    for (_, device, device_loads, active), _ in analysed:
        for array in (device, device_loads, active):
            assert not array.flags.writeable
    for (assignment, _), _ in log.calls("eplb_balancedness"):
        assert not assignment.flags.writeable


@given(
    st.sampled_from(LOAD_KINDS),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_greedy_on_descending_loads_scores_one_balancedness(
    kind, profiles, experts, devices, seed
):
    # No pass moves an expert after this pair (see eplb_rebalance_windows's docstring),
    # so every pass's state shares the placement's assignment and balancedness.
    w = WorkloadProfile(
        make_loads(kind, (profiles, experts), np.random.default_rng(seed)),
        num_devices=min(devices, experts),
    )
    base = (SortMode.DESCENDING_LOAD, Placement.GREEDY_LEAST_LOADED)
    with pytest.MonkeyPatch.context() as patch:
        log = StageLog(patch)
        EplbTask(w)
    (placed, _, _), = [result for args, result in log.calls("eplb_place") if args[:2] == base]
    scored = [args[0] for args, _ in log.calls("eplb_balancedness")]
    assert [device for device in scored if log.pair_of(device) == base] == [placed]
    analysed = [args[1] for args, _ in log.calls("eplb_rebalance_windows")]
    assert all(device is placed for device in analysed if log.pair_of(device) == base)


def test_a_placement_that_always_raises_fails_only_its_candidates(tmp_path, monkeypatch):
    text = (Path(__file__).resolve().parents[1] / "configs" / "eplb.cfg").read_text()
    config = parse_config_text(text + "\niterations = 5\n")

    def fail(name, args):
        if name == "eplb_place" and args[:2] == TARGET:
            raise RuntimeError("placement crashed")

    log = StageLog(monkeypatch, fail)
    task = make_task(config)
    built = len(log.events)
    evaluated = []
    evaluate = task.evaluate

    def recorded(seq, iteration, rng):
        evaluated.append(eplb.eplb_decode(seq))
        return evaluate(seq, iteration, rng)

    monkeypatch.setattr(task, "evaluate", recorded)
    path = tmp_path / "trace.jsonl"
    run_evolution(config, task, path)
    records = [record for record in read_trace(path) if record["kind"] == "candidate"]
    failing = [(h.sort_mode, h.placement) == TARGET for h in evaluated[1:]]  # [0]: the seed's
    assert len(records) == len(failing) == 40
    assert 0 < sum(failing) < 40
    for record, fails in zip(records, failing):
        if fails:
            assert record["status"] == "evaluator_error"
            assert record["error"] == "RuntimeError: placement crashed"
        else:
            assert record["status"] == "parsed" and record["error"] is None
    # Each of the pair's evaluations swept it again; no other stage ran.
    again = [(name, args[:2]) for name, args, _ in log.events[built:]]
    assert again == [("eplb_place", TARGET)] * sum(failing)
