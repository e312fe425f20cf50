import json
import re
from pathlib import Path

import numpy as np
import pytest

from phasevolve import cli, estimators
from phasevolve.config import (
    ConfigError,
    RunConfig,
    config_to_dict,
    load_config,
    parse_config_text,
)
from phasevolve.policy import TokenSequence
from phasevolve.tasks import make_task
from phasevolve.trace import read_trace

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# --------------------------------------------------------------------- config


def test_defaults_mirror_shared_hyperparameters():
    config = RunConfig()
    assert config.iterations == 1000
    assert config.samples_per_group == 8
    assert config.top_k == 4
    assert config.learning_rate == 1e-6
    assert config.weight_decay == 0.1
    assert (config.adam_beta1, config.adam_beta2) == (0.9, 0.98)
    assert (config.eps_lo, config.eps_hi) == (0.2, 0.28)


def test_parse_config_text_roundtrip():
    text = """
    # comment
    task = synthetic
    iterations = 20
    mode = grpo
    shaping.c = 3.5
    estimator.eps_skip = 1e-5
    archive.select_temperature = 0.25
    """
    config = parse_config_text(text)
    assert config.iterations == 20
    assert config.mode == "grpo"
    assert config.shaping_multiplier == 3.5
    assert config.eps_skip == 1e-5
    assert config.select_temperature == 0.25
    # Every rollout group has one parent; the per-candidate key is gone.
    with pytest.raises(ConfigError, match="unknown config key 'archive.per_candidate_parents'"):
        parse_config_text(text + "archive.per_candidate_parents = true\n")


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigError, match="bogus.key"):
        parse_config_text("bogus.key = 1")


def test_bad_value_names_the_key():
    with pytest.raises(ConfigError, match="iterations"):
        parse_config_text("iterations = soon")


def test_validation_errors():
    with pytest.raises(ConfigError, match="mode"):
        parse_config_text("mode = sarsa")
    with pytest.raises(ConfigError, match="top_k"):
        parse_config_text("top_k = 9")
    with pytest.raises(ConfigError, match="eps_skip"):
        parse_config_text("estimator.eps_skip = 1e-12")


@pytest.mark.parametrize(
    "line, key",
    [
        ("shaping.direction = up", "shaping.direction"),
        ("estimator.eps_num = 0", "estimator.eps_num"),
        ("estimator.gamma = -0.1", "estimator.gamma"),
        ("estimator.beta_max = 0", "estimator.beta_max"),
        ("clip.eps_lo = 1.5", "clip.eps_lo"),
        ("clip.eps_lo = 1", "clip.eps_lo"),
        ("synthetic.target_token = 99", "synthetic.target_token"),
        ("synthetic.target_token = 24", "synthetic.target_token"),
        ("synthetic.target_token = -1", "synthetic.target_token"),
        ("synthetic.delta0 = 0", "synthetic.delta0"),
        ("synthetic.decay_horizon = -1", "synthetic.decay_horizon"),
        ("synthetic.noise = -0.1", "synthetic.noise"),
        ("synthetic.tie_weight = 1.5", "synthetic.tie_weight"),
        ("eplb.num_devices = 0", "eplb.num_devices"),
        ("eplb.num_experts = 2", "eplb.num_devices"),
        ("eplb.num_profiles = 0", "eplb.num_profiles"),
        ("seed = -1", "seed"),
        ("eplb.profile_seed = -1", "eplb.profile_seed"),
    ],
)
def test_validation_names_the_key(line, key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        parse_config_text(line)


FLOAT_KEYS = [
    key for key, value in config_to_dict(RunConfig()).items() if isinstance(value, float)
]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_must_be_finite(key):
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be finite, got "):
            parse_config_text(f"{key} = {raw}")


@pytest.mark.parametrize(
    "group, c, ok",
    [(8, 1e150, True), (8, 9e153, False), (2, 9e153, True), (2, 1e200, False), (2, 1e307, False)],
)
def test_shaping_multiplier_bound_keeps_the_squared_spread_finite(group, c, ok):
    # Shaped rewards lie in [-1, shaping.c]: samples_per_group of them,
    # squared about their mean, must sum to a finite value.
    text = f"samples_per_group = {group}\ntop_k = 2\nshaping.c = {c!r}"
    if ok:
        assert parse_config_text(text).shaping_multiplier == c
    else:
        with pytest.raises(ConfigError, match=r"^shaping\.c: .* too large"):
            parse_config_text(text)


def test_target_token_bound_follows_vocab_size():
    config = parse_config_text("policy.vocab_size = 100\nsynthetic.target_token = 99")
    assert config.synthetic_target_token == 99


def test_config_to_dict_uses_dotted_keys():
    d = config_to_dict(RunConfig())
    assert d["shaping.c"] == 5.0
    assert d["clip.eps_hi"] == 0.28
    assert d["estimator.eps_num"] == 1e-8
    assert d["task"] == "synthetic"


# ------------------------------------------------------------------- estimate


def write_rewards(tmp_path, lines):
    path = tmp_path / "rewards.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_estimate_sloo_known_values(tmp_path, capsys):
    path = write_rewards(tmp_path, ["3", "2", "1"])
    assert cli.main(["estimate", "--file", path, "--mode", "sloo", "--k", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1.0", "0.3333333333333333", "0.0"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--mode", "sloo", "--k", "2"], ["1.0", "0.3333333333333333", "0.0"]),
        (["--mode", "grpo", "--eps-num", "0"], ["1.224744871391589", "0.0", "-1.224744871391589"]),
        (
            ["--mode", "phase", "--alpha", "0.5"],
            ["1.3194791943823425", "-0.3535533830932739", "-0.9659258112890685"],
        ),
    ],
    ids=["sloo", "grpo", "phase"],
)
def test_estimate_prints_the_readme_examples_lines(tmp_path, capsys, argv, expected):
    # The README's three examples on its rewards file, digit for digit.
    path = write_rewards(tmp_path, ["3", "2", "1"])
    assert cli.main(["estimate", "--file", path, *argv]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_estimate_grpo_two_point(tmp_path, capsys):
    path = write_rewards(tmp_path, ["0", "1"])
    assert cli.main(["estimate", "--file", path, "--mode", "grpo", "--eps-num", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [float(x) for x in out] == [-1.0, 1.0]


def test_estimate_phase_constant_rewards_skip(tmp_path, capsys):
    path = write_rewards(tmp_path, ["1", "1", "1"])
    for alpha in ("0", "0.5", "1"):
        assert cli.main(["estimate", "--file", path, "--mode", "phase", "--alpha", alpha]) == 0
        assert capsys.readouterr().out.strip() == "SKIP"


def test_estimate_non_numeric_line_reports_lineno(tmp_path, capsys):
    path = write_rewards(tmp_path, ["1.0", "oops", "2.0"])
    assert cli.main(["estimate", "--file", path, "--mode", "grpo"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_estimate_grpo_rejects_an_overflowing_std(tmp_path, capsys):
    # The squares of +-1e308 overflow, so the std does too: dividing by it
    # would print 0.0 and -0.0.
    path = write_rewards(tmp_path, ["1e308", "-1e308"])
    assert cli.main(["estimate", "--file", path, "--mode", "grpo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reward std overflows" in captured.err


def test_estimate_needs_two_values(tmp_path, capsys):
    path = write_rewards(tmp_path, ["1.0"])
    assert cli.main(["estimate", "--file", path, "--mode", "grpo"]) == 2


def test_estimate_explicit_bad_k_errors(tmp_path, capsys):
    path = write_rewards(tmp_path, ["1", "2", "3"])
    assert cli.main(["estimate", "--file", path, "--mode", "sloo", "--k", "7"]) == 2


@pytest.mark.parametrize(
    "mode, flag, value",
    [
        ("grpo", "--eps-num", "nan"),
        ("phase", "--eps-skip", "inf"),
        ("entropic", "--gamma", "inf"),
        ("phase", "--alpha", "nan"),
    ],
)
def test_estimate_rejects_non_finite_flag(tmp_path, capsys, mode, flag, value):
    # nan and inf pass most of the estimators' own range checks (the first
    # three cases would print nan, 99999999.0 or SKIP), so the flag is
    # checked and named before any estimator runs.
    path = write_rewards(tmp_path, ["1", "2", "3"])
    assert cli.main(["estimate", "--file", path, "--mode", mode, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be finite" in captured.err


def test_estimate_modes_agree_with_library(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rewards = rng.normal(size=6)
    path = write_rewards(tmp_path, [repr(float(x)) for x in rewards])

    def run(*argv):
        assert cli.main(["estimate", "--file", path, *argv]) == 0
        return [float(x) for x in capsys.readouterr().out.splitlines()]

    assert run("--mode", "raw") == estimators.group_relative_raw(rewards).tolist()
    assert run("--mode", "grpo") == estimators.grpo_advantage(rewards, 1e-8).tolist()
    assert run("--mode", "pkpo", "--k", "3") == estimators.pkpo_weights(rewards, 3).tolist()
    assert run("--mode", "sloo", "--k", "3") == estimators.sloo_weights(rewards, 3).tolist()
    found = estimators.entropic_beta(rewards, 0.3)
    assert (
        run("--mode", "entropic", "--gamma", "0.3")
        == estimators.entropic_advantage(rewards, found.beta, 1e-8).tolist()
    )
    g_std = estimators.standardize(estimators.group_relative_raw(rewards), 1e-8, 1e-6)
    k_std = estimators.standardize(estimators.sloo_weights(rewards, 4), 1e-8, 1e-6)
    assert (
        run("--mode", "phase", "--alpha", "0.3")
        == estimators.mix_advantages(g_std, k_std, 0.3).tolist()
    )


# ------------------------------------------------------------------------ run


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


RUN_CFG = """
task = synthetic
iterations = 10
samples_per_group = 4
top_k = 2
learning_rate = 0.05
weight_decay = 0.0
policy.vocab_size = 12
policy.seq_length = 6
"""


def test_run_writes_trace_and_archive(tmp_path, capsys):
    cfg = write_config(tmp_path, RUN_CFG)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "best_score:" in printed
    assert "skip_steps:" in printed

    records = read_trace(out_dir / "trace.jsonl")
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "header"
    assert kinds.count("candidate") == 10 * 4
    assert kinds.count("step") == 10

    archive = json.loads((out_dir / "archive.json").read_text())
    assert archive
    assert archive[0]["raw_score"] >= archive[-1]["raw_score"]


def test_run_unknown_task_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "task = kuairec\n")
    assert cli.main(["run", "--config", cfg]) == 2
    assert "kuairec" in capsys.readouterr().err


def test_run_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "budget = 4\n")
    assert cli.main(["run", "--config", cfg]) == 2
    assert "budget" in capsys.readouterr().err


def test_run_lower_clip_at_one_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, RUN_CFG + "clip.eps_lo = 1.5\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "clip.eps_lo" in capsys.readouterr().err


def test_run_removed_wall_clock_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "task = eplb\neplb.wall_clock_speed = true\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key 'eplb.wall_clock_speed'" in capsys.readouterr().err


def test_run_bad_profiles_file_names_key_and_path(tmp_path, capsys):
    profiles = tmp_path / "profiles.txt"
    profiles.write_text("2 4 1\n1.0 2.0\n")
    cfg = write_config(tmp_path, f"task = eplb\neplb.profiles_path = {profiles}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"eplb.profiles_path {profiles}: line 1: " in err
    assert "num_devices (4)" in err


def test_run_bad_profile_row_names_its_line(tmp_path, capsys):
    profiles = tmp_path / "profiles.txt"
    profiles.write_text("3 2 2\n1.0 2.0 3.0\n1.0 2.0\n")
    cfg = write_config(tmp_path, f"task = eplb\neplb.profiles_path = {profiles}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"eplb.profiles_path {profiles}: line 3: expected E = 3 loads, found 2" in err


def test_run_profile_with_no_positive_load_names_its_line(tmp_path, capsys):
    profiles = tmp_path / "profiles.txt"
    profiles.write_text("3 2 2\n1 2 3\n0 0 0\n")
    cfg = write_config(tmp_path, f"task = eplb\neplb.profiles_path = {profiles}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"eplb.profiles_path {profiles}: line 3: profile 1 holds no positive load" in err


def test_run_out_naming_a_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, RUN_CFG)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert cli.main(["run", "--config", cfg, "--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["phase", "maxk"])
def test_run_large_group_with_half_subsets(tmp_path, capsys, mode):
    # Exact binomial counts of this size overflow a float.
    text = RUN_CFG + f"samples_per_group = 1100\ntop_k = 550\niterations = 1\nmode = {mode}\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "skip_steps: 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{dir}"],
        ["run", "--config", "{cfg}"],
        ["estimate", "--file", "{dir}", "--mode", "grpo"],
        ["export", "--trace", "{dir}", "--series", "alpha"],
    ],
    ids=["run-config", "run-profiles-path", "estimate-file", "export-trace"],
)
def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys, argv):
    directory = tmp_path / "somedir"
    directory.mkdir()
    cfg = write_config(tmp_path, f"task = eplb\neplb.profiles_path = {directory}\n")
    argv = [arg.format(dir=directory, cfg=cfg) for arg in argv]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert str(directory) in capsys.readouterr().err


def test_failed_archive_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "archive.json"
    cli._write_json_atomic(path, [{"id": 1}])
    before = path.read_bytes()
    # json.dump streams: it writes the first entries before the third fails.
    with pytest.raises(TypeError):
        cli._write_json_atomic(path, [{"id": 2}, {"id": 3}, {"id": object()}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["archive.json"]


def test_run_seed_override_and_byte_identical_reruns(tmp_path, capsys):
    eplb_cfg = (CONFIGS / "eplb.cfg").read_text() + "iterations = 5\n"
    for name, text in (("synthetic", RUN_CFG), ("eplb", eplb_cfg)):
        cfg = write_config(tmp_path, text)
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        assert cli.main(["run", "--config", cfg, "--seed", "9", "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg, "--seed", "9", "--out", str(out_b)]) == 0
        assert (out_a / "trace.jsonl").read_bytes() == (out_b / "trace.jsonl").read_bytes()
        assert (out_a / "archive.json").read_bytes() == (out_b / "archive.json").read_bytes()


def test_run_archive_descriptors_equal_a_fresh_describe(tmp_path, capsys):
    eplb_cfg = (CONFIGS / "eplb.cfg").read_text() + "iterations = 5\n"
    for name, text in (("synthetic", RUN_CFG), ("eplb", eplb_cfg)):
        cfg = write_config(tmp_path, text)
        out_dir = tmp_path / name
        assert cli.main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
        task = make_task(load_config(cfg))
        archive = json.loads((out_dir / "archive.json").read_text())
        assert len(archive) > 1
        for entry in archive:
            seq = TokenSequence(entry["tokens"], [0.0] * len(entry["tokens"]))
            assert entry["descriptor"] == task.describe(seq)


def test_run_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, RUN_CFG)
    assert cli.main(["run", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "config error: seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["run", "--config", "{path}"], 2, "cannot read config file {path}: not UTF-8 text"),
        (
            ["estimate", "--file", "{path}", "--mode", "grpo"], 2,
            "cannot read rewards file {path}: not UTF-8 text",
        ),
        (["export", "--trace", "{path}", "--series", "alpha"], 3, "trace does not parse: "),
    ],
    ids=["run-config", "estimate-file", "export-trace"],
)
def test_non_utf8_input_file(tmp_path, capsys, argv, code, message):
    path = tmp_path / "latin1.txt"
    path.write_bytes("0.5\n0.25\n# caf\u00e9\n".encode("latin-1"))
    argv = [arg.format(path=path) for arg in argv]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == code
    assert message.format(path=path) in capsys.readouterr().err


def test_run_default_out_via_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PHASEVOLVE_OUT", str(tmp_path / "envout"))
    cfg = write_config(tmp_path, RUN_CFG)
    assert cli.main(["run", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "synthetic-seed0" / "trace.jsonl").exists()


# --------------------------------------------------------------------- export


def run_once(tmp_path, extra="", iterations=4):
    cfg = write_config(
        tmp_path,
        RUN_CFG.replace("iterations = 10", f"iterations = {iterations}") + extra,
    )
    out_dir = tmp_path / "exportrun"
    assert cli.main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    return out_dir / "trace.jsonl"


def test_export_alpha_series_matches_schedule(tmp_path, capsys):
    trace = run_once(tmp_path)
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "alpha"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "iteration,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == [0.0, 0.25, 0.5, 0.75]


def test_export_cumulative_max_non_decreasing(tmp_path, capsys):
    trace = run_once(tmp_path, iterations=8)
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "cumulative_max"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    values = [float(line.split(",")[1]) for line in lines]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_export_round_trips_logged_values(tmp_path, capsys):
    trace = run_once(tmp_path, iterations=6)
    records = read_trace(trace)
    logged = {
        r["iteration"]: r["grad_norm"] for r in records if r["kind"] == "step"
    }
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "grad_norm"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for line in lines:
        iteration, value = line.split(",")
        assert float(value) == logged[int(iteration)]


def test_export_unknown_series_lists_valid(tmp_path, capsys):
    trace = run_once(tmp_path)
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "loss_curve"]) == 2
    err = capsys.readouterr().err
    for name in ("cumulative_max", "entropy", "grad_norm", "alpha"):
        assert name in err


def test_export_boolean_series_reads_as_zero_or_one(tmp_path, capsys):
    trace = run_once(tmp_path, extra="synthetic.decay_horizon = 0.5\n", iterations=12)
    logged = {r["iteration"]: r["skipped"] for r in read_trace(trace) if r["kind"] == "step"}
    assert set(logged.values()) == {False, True}
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "skipped"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == [f"{t},{float(logged[t])!r}" for t in sorted(logged)]


def test_export_loss_omits_skipped_steps(tmp_path, capsys):
    trace = run_once(tmp_path, extra="synthetic.decay_horizon = 0.5\n", iterations=12)
    steps = [r for r in read_trace(trace) if r["kind"] == "step"]
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "loss"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == [f"{r['iteration']},{r['loss']!r}" for r in steps if not r["skipped"]]
    assert 0 < len(lines) < len(steps)


@pytest.mark.parametrize("series", ["mode", "advantages", "nope"])
def test_export_non_numeric_or_missing_series_exits_2(tmp_path, capsys, series):
    trace = run_once(tmp_path)
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", series]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    valid = captured.err.split("valid: ")[1].strip().split(", ")
    assert {"alpha", "skipped", "loss", "grad_norm", "cumulative_max"} <= set(valid)
    assert not {"mode", "advantages", "g_branch", "kind", "params_hash_start"} & set(valid)


def test_export_empty_trace_header_only(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli.main(["export", "--trace", str(empty), "--series", "alpha"]) == 0
    assert capsys.readouterr().out == "iteration,value\n"


def test_export_missing_trace_exits_2(tmp_path, capsys):
    assert cli.main(["export", "--trace", str(tmp_path / "nope.jsonl"), "--series", "alpha"]) == 2


def test_export_skips_torn_last_line(tmp_path, capsys):
    trace = run_once(tmp_path, iterations=6)
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "grad_norm"]) == 0
    whole = capsys.readouterr().out.splitlines()
    data = trace.read_bytes()
    trace.write_bytes(data[:-40])  # a run killed mid-write of its last step
    assert len(read_trace(trace)) == data.count(b"\n") - 1
    assert cli.main(["export", "--trace", str(trace), "--series", "grad_norm"]) == 0
    assert capsys.readouterr().out.splitlines() == whole[:-1]


def test_export_malformed_line_names_its_line(tmp_path, capsys):
    trace = run_once(tmp_path, iterations=6)
    lines = trace.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:-40] + "\n"  # a broken record that is not the last
    trace.write_text("".join(lines))
    with pytest.raises(json.JSONDecodeError) as excinfo:
        read_trace(trace)
    assert excinfo.value.lineno == 3
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "grad_norm"]) == 3
    assert "line 3 column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1,2]", "line 3: not a JSON object"),
        ('{"kind":"step","alpha":0.5}', "line 3: step record has no integer iteration"),
    ],
    ids=["non-object", "step-without-iteration"],
)
def test_export_line_that_is_not_a_trace_record_exits_3(tmp_path, capsys, line, message):
    trace = run_once(tmp_path, iterations=6)
    lines = trace.read_text().splitlines(keepends=True)
    lines[2] = line + "\n"
    trace.write_text("".join(lines))
    capsys.readouterr()
    assert cli.main(["export", "--trace", str(trace), "--series", "alpha"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"trace does not parse: {message}\n"
