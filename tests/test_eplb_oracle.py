"""The profile-batched EPLB evaluator against the per-profile reference.

``phasevolve.tasks.eplb`` assigns, rebalances and scores every profile at
once; ``reference_eplb`` does one profile at a time, expert by expert. The
arithmetic and its order are the same, so assignments, op counts and scores
must be equal exactly, for every descriptor, on heavy-tailed loads, on
integer loads (ties in the sort, in argmin/argmax and in the rebalance rule)
and on loads with zero-load experts. The package's stages are composed one
descriptor at a time by ``reference_eplb.staged_assign`` and
``staged_score``.

``EplbTask`` computes the outcomes of all 144 descriptors when it is built,
in one sweep per (sort mode, placement rule) pair over the profiles stacked
once per swap window: one rebalance pass per depth, each row under its own
window. The table tests below require each outcome to equal the per-profile
oracle's (``reference_eplb.eplb_assign``, then ``eplb_score``), which
shares no code with the task, in any order of evaluation. ``StageLog``
watches the stages through recording wrappers, installed before the task is
built: how many passes and scores a sweep runs, and that a pair whose sweep
raised is swept again, and nothing else, when it is evaluated.
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
    """The staged composition and the task, which runs all four windows in
    one pass, against the per-profile oracle."""
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


STAGES = ("eplb_place", "eplb_rebalance_pass", "eplb_balancedness")
# A pair other than the reference one, whose placement construction needs.
TARGET = (SortMode.ASCENDING_LOAD, Placement.BLOCKED)


class StageLog:
    """Records every call of the three EPLB stages while the patch holds.

    Each event is [stage name, arguments, result or None if it raised]. A
    sweep starts with its pair's placement (the reference pair's sweep takes
    the reference cost's, made just before it), so ``sweeps`` splits the
    events at each placement, and ``pair`` is the running sweep's pair.
    ``fail(name, args)``, if given, runs before each stage and may raise.
    """

    def __init__(self, patch: pytest.MonkeyPatch, fail=None):
        self.events: list[list] = []
        self.sweeps: list[list[list]] = []
        for name in STAGES:
            patch.setattr(eplb, name, self._recorded(name, getattr(eplb, name), fail))

    def _recorded(self, name, stage, fail):
        def call(*args):
            event = [name, args, None]
            if name == "eplb_place":
                self.sweeps.append([])
            self.events.append(event)
            self.sweeps[-1].append(event)
            if fail is not None:
                fail(name, args)
            event[2] = result = stage(*args)
            return result

        return call

    @property
    def pair(self) -> tuple[SortMode, Placement]:
        return self.sweeps[-1][0][1][:2]

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
    # per-profile oracle: one placement per pair, one pass per pair and
    # depth 0 to 2 while some row is active, and one balancedness at depth 0
    # and after each pass that moved a row. A pass moves a row exactly when
    # some window's assignment changes with it; the rows it moved are the
    # next pass's active rows, so no pass runs after one that moved none.
    passes = scores = 0
    for sort_mode, placement in itertools.product(SortMode, Placement):
        devices = {
            (depth, window): ref.eplb_assign(
                HeuristicDescriptor(sort_mode, placement, depth, window), w
            )[0]
            for depth, window in itertools.product(range(4), range(1, 5))
        }
        moved = [
            any(
                not np.array_equal(devices[depth, window], devices[depth + 1, window])
                for window in range(1, 5)
            )
            for depth in range(3)
        ]
        passes += 1 + moved[0] + moved[1]
        scores += 1 + sum(moved)
    # Some pair moves a row and passes again; the reference pair moves none.
    assert 9 < passes < 27
    log = StageLog(monkeypatch)
    # Built under the log: the reference cost's placement is one of the 9.
    task = EplbTask(w)
    want = {"eplb_place": 9, "eplb_rebalance_pass": passes, "eplb_balancedness": scores}
    assert {name: len(log.calls(name)) for name in STAGES} == want
    rng = np.random.default_rng(0)
    for h in DESCRIPTORS:
        task.evaluate(seq_for(h), 0, rng)
    assert {name: len(log.calls(name)) for name in STAGES} == want


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
    st.sampled_from(list(itertools.product(SortMode, Placement))),
    st.sampled_from(LOAD_KINDS),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_a_pass_runs_each_row_under_its_own_window(pair, kind, profiles, experts, devices, seed):
    # One pass with a window per row gives each row what a pass with that
    # window for every row gives it, and writes into none of its arguments.
    rng = np.random.default_rng(seed)
    w = WorkloadProfile(make_loads(kind, (profiles, experts), rng), min(devices, experts))
    device, device_loads, _ = eplb.eplb_place(*pair, w)
    active = np.flatnonzero(rng.random(profiles) < 0.8)
    window = rng.integers(1, 5, size=profiles)
    given_args = (device.copy(), device_loads.copy(), active.copy())
    got = eplb.eplb_rebalance_pass(w, window, device, device_loads, active)
    for given_arg, arg in zip(given_args, (device, device_loads, active)):
        assert np.array_equal(given_arg, arg)
    for r in range(profiles):
        alone = eplb.eplb_rebalance_pass(
            w, np.full(profiles, window[r]), device, device_loads, active
        )
        assert np.array_equal(got[0][r], alone[0][r])
        assert np.array_equal(got[1][r], alone[1][r])
        assert (r in got[2]) == (r in alone[2])
        assert got[3][r] == alone[3][r]


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
    # The reason is in eplb_rebalance_pass's docstring. The passes only add ops, so
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


def test_an_evaluation_that_raises_is_not_memoized(monkeypatch):
    # The scorer fails on the target pair's placement three times: while the
    # task is built and in the next two evaluations of the pair; then it heals.
    w = memo_profile()
    failures = []

    def fail(name, args):
        if name == "eplb_balancedness" and log.pair == TARGET and len(failures) < 3:
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
        if name == "eplb_balancedness" and log.pair == TARGET:
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
    # The target pair's second pass (depth 1), which starts from the rows the
    # first one moved, fails while the task is built and in the next evaluation.
    w = memo_profile()
    h = HeuristicDescriptor(*TARGET, 3, 3)
    one = replace(h, rebalance_passes=1)
    failures = []

    def fail(name, args):
        if name != "eplb_rebalance_pass" or log.pair != TARGET:
            return
        depth = sum(stage == "eplb_rebalance_pass" for stage, *_ in log.sweeps[-1]) - 1
        if depth == 1 and len(failures) < 2:
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
    # No pass moves an expert after this pair (see eplb_rebalance_pass's docstring),
    # so its sweep runs one pass, which moves no row, and scores the placement alone.
    w = WorkloadProfile(
        make_loads(kind, (profiles, experts), np.random.default_rng(seed)),
        num_devices=min(devices, experts),
    )
    with pytest.MonkeyPatch.context() as patch:
        log = StageLog(patch)
        EplbTask(w)
    # The reference cost's placement starts the first sweep, the base pair's.
    place, score, rebalance = log.sweeps[0]
    assert (place[0], place[1][:2]) == (
        "eplb_place", (SortMode.DESCENDING_LOAD, Placement.GREEDY_LEAST_LOADED)
    )
    assert (score[0], rebalance[0]) == ("eplb_balancedness", "eplb_rebalance_pass")
    moved = rebalance[2][2]
    assert moved.size == 0


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
