import json


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
from phasevolve.trace import read_trace


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
    archive.per_candidate_parents = true
    """
    config = parse_config_text(text)
    assert config.iterations == 20
    assert config.mode == "grpo"
    assert config.shaping_multiplier == 3.5
    assert config.eps_skip == 1e-5
    assert config.per_candidate_parents is True


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


def test_estimate_needs_two_values(tmp_path, capsys):
    path = write_rewards(tmp_path, ["1.0"])
    assert cli.main(["estimate", "--file", path, "--mode", "grpo"]) == 2


def test_estimate_explicit_bad_k_errors(tmp_path, capsys):
    path = write_rewards(tmp_path, ["1", "2", "3"])
    assert cli.main(["estimate", "--file", path, "--mode", "sloo", "--k", "7"]) == 2


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
    assert (
        run("--mode", "sloo-brute", "--k", "3")
        == estimators.sloo_weights_bruteforce(rewards, 3).tolist()
    )
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
    cfg = write_config(tmp_path, RUN_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--seed", "9", "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg, "--seed", "9", "--out", str(out_b)]) == 0
    assert (out_a / "trace.jsonl").read_bytes() == (out_b / "trace.jsonl").read_bytes()
    assert (out_a / "archive.json").read_bytes() == (out_b / "archive.json").read_bytes()


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
