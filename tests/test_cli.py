"""Command-line interface: artifacts, precedence, exit codes, reproducibility."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsearch.cli import _COMMANDS, main
from promptsearch.metrics import dist1
from promptsearch.sampler import load_record, save_record
from promptsearch.synthetic import synthetic_dataset
from promptsearch.tasks import Example


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")

    def dump(path, examples):
        with open(path, "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(json.dumps({"text": ex.text, "label": ex.label}) + "\n")

    train = root / "train.jsonl"
    val = root / "val.jsonl"
    dump(train, synthetic_dataset(20, seed=0))
    dump(val, synthetic_dataset(12, seed=1))
    unlabeled = root / "unlabeled.jsonl"
    with open(unlabeled, "w", encoding="utf-8") as fh:
        for ex in synthetic_dataset(8, seed=2):
            fh.write(json.dumps({"text": ex.text}) + "\n")
    return {"train": str(train), "val": str(val), "unlabeled": str(unlabeled),
            "root": root}


def tune_args(data_files, out_dir, **kw):
    base = {
        "task": "synthetic-2label", "data": data_files["train"],
        "out-dir": str(out_dir), "steps": "6", "m": "3", "batch-size": "4",
        "eta": "0.5", "seeds": "2", "model": "reference:1",
    }
    base.update({k.replace("_", "-"): v for k, v in kw.items()})
    args = ["tune"]
    for key, value in base.items():
        if value is not None:
            args.extend([f"--{key}", str(value)])
    return args


# -- tune ------------------------------------------------------------------------

def test_tune_writes_chains_and_manifest(data_files, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(tune_args(data_files, out)) == 0
    files = sorted(out.glob("chain_*.json"))
    assert [f.name for f in files] == ["chain_000_seed0.json",
                                      "chain_000_seed1.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task_id"] == "synthetic-2label"
    assert manifest["model"] == "reference:1"
    assert len(manifest["chains"]) == 2
    import hashlib
    for entry in manifest["chains"]:
        digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest
    rec = load_record(files[0])
    assert len(rec.per_step) == 6
    assert rec.config.model_spec == "reference:1"
    assert "wrote 2 chains" in capsys.readouterr().out


def test_tune_grid_enumerates_combinations(data_files, tmp_path):
    out = tmp_path / "grid"
    assert main(tune_args(data_files, out, m="2,3", eta="0.5,1.0",
                          lambda_fluency="0.0,0.1", seeds="0,7")) == 0
    files = sorted(out.glob("chain_*.json"))
    assert len(files) == 2 * 2 * 2 * 2  # m x eta x lambda x seeds
    groups = {f.name.split("_seed")[0] for f in files}
    assert groups == {f"chain_{i:03d}" for i in range(8)}
    seen = set()
    for f in files:
        cfg = load_record(f).config
        seen.add((cfg.prompt_length, cfg.eta, cfg.energy.lambda_fluency,
                  cfg.seed))
    assert len(seen) == 16


def test_tune_val_data_appends_accuracy(data_files, tmp_path):
    out = tmp_path / "withval"
    assert main(tune_args(data_files, out, val_data=data_files["val"])) == 0
    for f in out.glob("chain_*.json"):
        rec = load_record(f)
        assert "accuracy" in rec.metrics
        assert 0.0 <= rec.metrics["accuracy"] <= 1.0


def test_tune_unsupervised_mode(data_files, tmp_path):
    out = tmp_path / "unsup"
    assert main(tune_args(data_files, out, mode="unsupervised",
                          data=data_files["unlabeled"],
                          lambda_domain="0.01", energy_sign="intent")) == 0
    rec = load_record(sorted(out.glob("chain_*.json"))[0])
    assert rec.config.energy.mode == "unsupervised"
    assert rec.config.energy.sign == "intent"
    assert set(rec.per_step[0].energy.per_term) == {"entropy", "domain"}


@pytest.mark.parametrize("mode, data", [("supervised", "train"),
                                        ("unsupervised", "unlabeled")])
def test_tune_parallel_matches_serial(data_files, tmp_path, mode, data):
    """Unsupervised chains skip the chain memo and take the other energy path."""
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = dict(mode=mode, data=data_files[data])
    assert main(tune_args(data_files, serial, **args)) == 0
    assert main(tune_args(data_files, parallel, jobs="2", **args)) == 0
    files = sorted(serial.glob("chain_*.json"))
    assert len(files) == 2
    for f in files:
        assert f.read_bytes() == (parallel / f.name).read_bytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool ``tune`` opens; each pool
    maps in this process, so no worker is started."""
    from promptsearch import cli

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.mark.parametrize("seeds, pools", [("1", []), ("3", [3])])
def test_tune_jobs_opens_at_most_one_worker_per_chain(data_files, tmp_path, pool_sizes,
                                                      seeds, pools):
    """A process pool forks all its workers at its first task, so ``--jobs 8``
    once forked eight processes to run a single chain."""
    serial, jobs = tmp_path / "serial", tmp_path / "jobs"
    assert main(tune_args(data_files, serial, seeds=seeds)) == 0
    assert main(tune_args(data_files, jobs, seeds=seeds, jobs="8")) == 0
    assert pool_sizes == pools
    records = sorted(serial.glob("chain_*.json"))
    assert len(records) == int(seeds)
    for f in records:
        assert f.read_bytes() == (jobs / f.name).read_bytes()


def test_tune_init_text_flag(data_files, tmp_path):
    out = tmp_path / "init"
    assert main(tune_args(data_files, out, init_text="great movie fun",
                          steps="1", eta="0.000000001", seeds="1",
                          optimizer="plain", beta_start="0", beta_end="0")) == 0
    rec = load_record(next(out.glob("chain_*.json")))
    assert rec.per_step[0].token_ids == (31, 12, 32)  # great movie fun


def test_tune_usage_errors(data_files, tmp_path, capsys):
    out = tmp_path / "x"
    # missing --data
    assert main(["tune", "--task", "synthetic-2label",
                 "--out-dir", str(out)]) == 2
    # unknown task
    assert main(tune_args(data_files, out, task="nope")) == 2
    # both task and task-file
    assert main(tune_args(data_files, out) +
                ["--task-file", data_files["train"]]) == 2
    # supervised mode rejects unsupervised knobs
    assert main(tune_args(data_files, out, lambda_domain="0.5")) == 2
    assert main(tune_args(data_files, out, energy_sign="literal")) == 2
    # unsupervised mode rejects the fluency knob
    assert main(tune_args(data_files, out, mode="unsupervised",
                          lambda_fluency="0.1")) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_inputs_exit_2_with_one_line_message(data_files, tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert main(tune_args(data_files, tmp_path / "a", data=str(missing))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.jsonl" in err
    assert err.count("\n") == 1

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": "abc"}))
    assert main(tune_args(data_files, tmp_path / "b", steps=None)
                + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid value for steps: 'abc'\n"

    assert main(["eval", "--task", "synthetic-2label", "--prompts",
                 str(tmp_path / "missing.txt"), "--data", data_files["val"]]) == 2
    assert "missing.txt" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_tune_rejects_unlabeled_supervised(data_files, tmp_path):
    assert main(tune_args(data_files, tmp_path / "x",
                          data=data_files["unlabeled"])) == 2


def test_tune_config_file_and_flag_precedence(data_files, tmp_path):
    out = tmp_path / "cfg"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 9, "eta": 0.25, "seeds": "1"}))
    args = ["tune", "--task", "synthetic-2label", "--data",
            data_files["train"], "--out-dir", str(out), "--m", "2",
            "--batch-size", "4", "--config", str(cfg_path), "--steps", "4"]
    assert main(args) == 0
    rec = load_record(next(out.glob("chain_*.json")))
    assert len(rec.per_step) == 4        # flag wins over config
    assert rec.config.eta == 0.25        # config wins over default


def test_tune_config_unknown_keys(data_files, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"stepz": 9}))
    assert main(tune_args(data_files, tmp_path / "x",
                          config=str(cfg_path))) == 2
    assert main(tune_args(data_files, tmp_path / "x",
                          config=str(tmp_path / "missing.json"))) == 2


def test_tune_task_file(data_files, tmp_path):
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps({
        "id": "custom", "template": "{x} it was",
        "verbalizer": {"good": "good", "bad": "bad"},
        "domain_string": "this is a review",
    }))
    out = tmp_path / "custom"
    args = tune_args(data_files, out)
    args.remove("--task")
    args.remove("synthetic-2label")
    assert main(args + ["--task-file", str(task_path)]) == 0
    assert load_record(next(out.glob("chain_*.json"))).task_id == "custom"


# -- eval ----------------------------------------------------------------------------

@pytest.fixture()
def tuned_dir(data_files, tmp_path):
    out = tmp_path / "tuned"
    assert main(tune_args(data_files, out)) == 0
    return out


def test_eval_chains_appends_metrics(data_files, tuned_dir, capsys):
    before = json.loads((tuned_dir / "manifest.json").read_text())
    assert main(["eval", "--task", "synthetic-2label", "--chains",
                 str(tuned_dir), "--data", data_files["val"],
                 "--model", "reference:1"]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "dist1 over 2 prompts" in out
    texts = []
    for f in sorted(tuned_dir.glob("chain_*.json")):
        rec = load_record(f)
        assert {"accuracy", "dist1"} <= set(rec.metrics)
        texts.append(rec.final_prompt_text)
    rec = load_record(sorted(tuned_dir.glob("chain_*.json"))[0])
    assert rec.metrics["dist1"] == pytest.approx(dist1(texts))
    after = json.loads((tuned_dir / "manifest.json").read_text())
    assert "updated" in after and "updated" not in before
    # hashes were refreshed to match the rewritten records
    import hashlib
    for entry in after["chains"]:
        digest = hashlib.sha256(
            (tuned_dir / entry["file"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest


def test_eval_prompt_file(data_files, tmp_path, capsys):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("the movie was great\n\ngood bad good\n")
    assert main(["eval", "--task", "synthetic-2label", "--prompts",
                 str(prompts), "--data", data_files["val"],
                 "--include-empty"]) == 0
    out = capsys.readouterr().out
    assert "the movie was great" in out
    assert "(empty)" in out


def test_eval_usage_errors(data_files, tuned_dir, tmp_path):
    # neither chains nor prompts
    assert main(["eval", "--task", "synthetic-2label",
                 "--data", data_files["val"]]) == 2
    # both
    prompts = tmp_path / "p.txt"
    prompts.write_text("the movie\n")
    assert main(["eval", "--task", "synthetic-2label", "--chains",
                 str(tuned_dir), "--prompts", str(prompts),
                 "--data", data_files["val"]]) == 2
    # missing data
    assert main(["eval", "--task", "synthetic-2label", "--chains",
                 str(tuned_dir)]) == 2
    # unlabeled data
    assert main(["eval", "--task", "synthetic-2label", "--chains",
                 str(tuned_dir), "--data", data_files["unlabeled"]]) == 2
    # empty chain dir
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", "--task", "synthetic-2label", "--chains",
                 str(empty), "--data", data_files["val"]]) == 2


# -- analyze --------------------------------------------------------------------------

def test_analyze_writes_report(data_files, tuned_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    prompts = tmp_path / "rand.txt"
    prompts.write_text("old cold dull\nwarm new fresh\n")
    assert main(["analyze", "--task", "synthetic-2label", "--chains",
                 str(tuned_dir), "--data", data_files["val"],
                 "--model", "reference:1",
                 "--random-prompts", str(prompts), "--include-empty",
                 "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert set(doc) == {"prompts", "entropy_hist", "scatter", "spearman",
                        "domain_freq"}
    assert {r["source"] for r in doc["prompts"]} >= {"tuned", "random",
                                                     "empty"}
    out = capsys.readouterr().out
    assert "report written" in out
    assert "adaptive optimizer preconditions the gradient term only" in out


def test_analyze_default_report_location(data_files, tuned_dir):
    assert main(["analyze", "--task", "synthetic-2label", "--chains",
                 str(tuned_dir), "--data", data_files["val"],
                 "--model", "reference:1"]) == 0
    assert (tuned_dir / "report.json").is_file()


def test_analyze_notes_energy_sign(data_files, tmp_path, capsys):
    out = tmp_path / "unsup"
    assert main(tune_args(data_files, out, mode="unsupervised",
                          data=data_files["unlabeled"], seeds="1",
                          energy_sign="literal")) == 0
    assert main(["analyze", "--task", "synthetic-2label", "--chains",
                 str(out), "--data", data_files["val"],
                 "--model", "reference:1"]) == 0
    blurb = capsys.readouterr().out
    assert "literal" in blurb and "intent" in blurb


def test_analyze_requires_chains(data_files):
    assert main(["analyze", "--task", "synthetic-2label",
                 "--data", data_files["val"]]) == 2


def test_analyze_with_continuations(data_files, tuned_dir):
    assert main(["analyze", "--task", "synthetic-2label", "--chains",
                 str(tuned_dir), "--data", data_files["val"],
                 "--model", "reference:1", "--continuations", "2",
                 "--continuation-length", "10"]) == 0
    doc = json.loads((tuned_dir / "report.json").read_text())
    assert len(doc["prompts"]) >= 1


# -- process-level smoke --------------------------------------------------------------

def test_module_entry_point_runs(data_files, tmp_path):
    out = tmp_path / "proc"
    cmd = [sys.executable, "-m", "promptsearch.cli"] + tune_args(
        data_files, out)[0:1] + tune_args(data_files, out)[1:]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").is_file()


def test_exit_code_one_on_model_fault(monkeypatch, data_files, tmp_path):
    from promptsearch import cli
    from promptsearch.errors import ModelFault

    def boom(ns):
        raise ModelFault("synthetic failure")

    monkeypatch.setitem(cli.main.__globals__, "cmd_tune", boom)
    # the handlers dict is rebuilt per call from module globals
    assert cli.main(tune_args(data_files, tmp_path / "x")) == 1


def test_tune_chain_fault_keeps_partial_record_and_manifest(monkeypatch, data_files,
                                                            tmp_path, capsys):
    from conftest import CountingModel
    from promptsearch import cli
    from promptsearch.model import load_adapter

    # batch size 4: the 10th forward is in step 2, so seed 0 keeps steps 0-1
    monkeypatch.setattr(cli, "load_adapter",
                        lambda spec: CountingModel(load_adapter(spec), fail_on_forward=10))
    out = tmp_path / "faulty"
    assert main(tune_args(data_files, out)) == 1
    assert "fault in chain_000_seed0.json: " in capsys.readouterr().err
    partial = load_record(out / "chain_000_seed0.json")
    assert partial.fault is not None and len(partial.per_step) == 2
    assert load_record(out / "chain_000_seed1.json").fault is None
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["file"] for e in manifest["chains"]] == ["chain_000_seed0.json",
                                                      "chain_000_seed1.json"]


# -- corrupt artifacts and out-of-range options -------------------------------------

def _one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err, err


def _eval_chains(tuned_dir, data_files):
    return ["eval", "--task", "synthetic-2label", "--chains", str(tuned_dir),
            "--data", data_files["val"], "--model", "reference:1"]


def _record_bytes(tuned_dir):
    return {p.name: p.read_bytes() for p in sorted(tuned_dir.glob("*.json"))}


def test_eval_truncated_record_exits_2_naming_it(data_files, tuned_dir, capsys):
    path = tuned_dir / "chain_000_seed1.json"
    path.write_text(path.read_text()[:40])
    before = _record_bytes(tuned_dir)
    assert main(_eval_chains(tuned_dir, data_files)) == 2
    _one_error_line(capsys, "chain_000_seed1.json")
    assert _record_bytes(tuned_dir) == before


def test_analyze_record_missing_fields_exits_2_naming_it(data_files, tuned_dir, capsys):
    (tuned_dir / "chain_000_seed0.json").write_text('{"steps": []}')
    assert main(["analyze", "--task", "synthetic-2label", "--chains", str(tuned_dir),
                 "--data", data_files["val"], "--model", "reference:1"]) == 2
    _one_error_line(capsys, "chain_000_seed0.json")
    assert not (tuned_dir / "report.json").exists()


def test_record_with_rejected_config_value_exits_2(data_files, tuned_dir, capsys):
    path = tuned_dir / "chain_000_seed0.json"
    doc = json.loads(path.read_text())
    doc["config"]["eta"] = -1.0
    path.write_text(json.dumps(doc))
    assert main(_eval_chains(tuned_dir, data_files)) == 2
    _one_error_line(capsys, "chain_000_seed0.json", "eta")


@pytest.mark.parametrize("manifest", ['{"chains": [', "[]",
                                      '{"chains": [{"sha256": "0"}]}'])
def test_eval_checks_manifest_before_rewriting_records(data_files, tuned_dir, capsys,
                                                       manifest):
    (tuned_dir / "manifest.json").write_text(manifest)
    before = _record_bytes(tuned_dir)
    assert main(_eval_chains(tuned_dir, data_files)) == 2
    _one_error_line(capsys, "manifest.json")
    assert _record_bytes(tuned_dir) == before


@pytest.mark.parametrize("flag, value", [
    ("--effective-quantile", "1.5"), ("--effective-quantile", "-0.1"),
    ("--continuations", "-1"), ("--continuation-length", "0"),
    ("--nucleus-p", "0"), ("--nucleus-p", "1.5"), ("--continuation-seed", "-1"),
])
def test_analyze_option_out_of_range_exits_2_before_reading_chains(data_files, capsys,
                                                                   flag, value):
    # the directory holds no chain records: reading them would fail differently
    assert main(["analyze", "--task", "synthetic-2label", "--chains",
                 str(data_files["root"]), flag, value]) == 2
    _one_error_line(capsys, flag[2:].replace("-", "_"))


@pytest.mark.parametrize("option", ["--jobs=0", "--seeds=-1,"])
def test_tune_option_out_of_range_exits_2(data_files, tmp_path, capsys, option):
    out = tmp_path / "opt"
    assert main(tune_args(data_files, out, seeds=None) + [option]) == 2
    _one_error_line(capsys, option[2:option.index("=")])
    assert not out.exists()


def test_tune_checks_every_m_against_max_len_before_any_chain(monkeypatch, data_files,
                                                              tmp_path, capsys):
    from promptsearch import cli

    chains = []
    monkeypatch.setattr(cli, "run_chain", lambda *args: chains.append(args))
    out = tmp_path / "long"
    assert main(tune_args(data_files, out, m="3,200")) == 2
    _one_error_line(capsys, "200", "max_len 160")
    assert chains == [] and not out.exists()


# -- one option table: flags and config values read and checked alike ----------------

@pytest.mark.parametrize("option, value", [
    ("seeds", "0"), ("m", ""), ("eta", ""), ("lambda_fluency", ""),
])
def test_tune_empty_grid_exits_2_before_writing(data_files, tmp_path, capsys,
                                                option, value):
    out = tmp_path / "empty_grid"
    assert main(tune_args(data_files, out, **{option: value})) == 2
    _one_error_line(capsys, option)
    assert not out.exists()


@pytest.mark.parametrize("config, flags, key", [
    ({"mode": "supervisd"}, {}, "mode"),
    (None, {"mode": "x"}, "mode"),
    (None, {"steps": "abc"}, "steps"),
    (None, {"jobs": "two"}, "jobs"),
    ({"m": []}, {"m": None}, "m"),
])
def test_tune_bad_flag_or_config_value_exits_2_before_writing(data_files, tmp_path,
                                                              capsys, config, flags, key):
    out = tmp_path / "bad"
    args = tune_args(data_files, out, **flags)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main(args) == 2  # returned, not argparse's SystemExit
    _one_error_line(capsys, key)
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--eta", "-inf"], ["--init-text", "-x"],
                                   ["--bogus", "1"], ["--steps"]])
def test_tune_argument_errors_return_2_with_one_line(data_files, tmp_path, capsys, extra):
    """argparse's own errors (a value that starts with a dash read as a flag,
    an unknown flag, a flag without its value) once left ``main`` by
    ``SystemExit`` after a usage text."""
    out = tmp_path / "out"
    assert main(tune_args(data_files, out) + extra) == 2
    _one_error_line(capsys, extra[0])
    assert not out.exists()
    assert main([]) == 2
    _one_error_line(capsys, "command")


def test_eval_rejects_non_boolean_include_empty_in_config(data_files, tuned_dir,
                                                          tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"include_empty": "no"}))
    before = _record_bytes(tuned_dir)
    assert main(_eval_chains(tuned_dir, data_files) + ["--config", str(path)]) == 2
    _one_error_line(capsys, "include_empty")
    assert _record_bytes(tuned_dir) == before


def test_tune_saves_each_record_as_its_chain_returns(monkeypatch, data_files, tmp_path):
    from promptsearch import cli

    out = tmp_path / "incremental"
    on_disk = {}
    real_run_chain = cli.run_chain

    def spy(task, model, cfg, data):
        on_disk[cfg.seed] = sorted(p.name for p in out.glob("*.json"))
        return real_run_chain(task, model, cfg, data)

    monkeypatch.setattr(cli, "run_chain", spy)
    assert main(tune_args(data_files, out)) == 0
    assert on_disk == {0: [], 1: ["chain_000_seed0.json"]}  # manifest comes last
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("command", ["tune", "eval", "analyze"])
def test_help_lists_every_option_of_the_table(command):
    import re

    from promptsearch.cli import _COMMANDS

    proc = subprocess.run([sys.executable, "-m", "promptsearch.cli", command, "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    flags = set(re.findall(r"--[a-z-]+", proc.stdout))
    for key, *_ in _COMMANDS[command][1]:
        assert "--" + key.replace("_", "-") in flags
    assert "--config" in flags


# -- out-dir and config scalars ----------------------------------------------------------

@pytest.mark.parametrize("under", ["", "sub"])
def test_tune_out_dir_naming_a_file_exits_2_before_loading_a_model(
        monkeypatch, data_files, tmp_path, capsys, under):
    from promptsearch import cli

    loaded = []
    monkeypatch.setattr(cli, "load_adapter", lambda spec: loaded.append(spec))
    existing = tmp_path / "taken"
    existing.write_text("not a directory")
    assert main(tune_args(data_files, existing / under)) == 2
    _one_error_line(capsys, "out_dir")
    assert loaded == [] and existing.read_text() == "not a directory"


def test_tune_refuses_an_out_dir_holding_records_of_another_grid(
        monkeypatch, data_files, tmp_path, capsys):
    """A stale record once stayed beside the new grid's, and ``eval --chains``
    scored it with them; a rerun of the same grid still overwrites its own."""
    from promptsearch import cli

    out = tmp_path / "runs"
    assert main(tune_args(data_files, out, seeds="3")) == 0
    before = _record_bytes(out)
    with monkeypatch.context() as patch:
        loaded = []
        patch.setattr(cli, "load_adapter", lambda spec: loaded.append(spec))
        capsys.readouterr()
        assert main(tune_args(data_files, out, seeds="1", eta="0.4")) == 2
        _one_error_line(capsys, str(out / "chain_000_seed1.json"))
        assert loaded == [] and _record_bytes(out) == before
    assert main(tune_args(data_files, out, seeds="3")) == 0
    assert sorted(_record_bytes(out)) == sorted(before)


@pytest.mark.parametrize("command, flag, abbreviation", [
    ("tune", "--steps", "--step"), ("tune", "--batch-size", "--batch"),
    ("eval", "--chains", "--chain"), ("analyze", "--data", "--dat"),
])
def test_an_abbreviated_flag_exits_2_before_loading_a_model(
        data_files, tuned_dir, tmp_path, capsys, no_model, command, flag, abbreviation):
    """``tune --step 3`` was once read as ``--steps 3``, though a config file
    takes full keys only."""
    out = tmp_path / "out"
    args = _run_args(command, tuned_dir, data_files, out)
    args[args.index(flag)] = abbreviation
    before = _record_bytes(tuned_dir)
    capsys.readouterr()
    assert main(args) == 2
    _one_error_line(capsys, f"unrecognized arguments: {abbreviation}")
    assert no_model == [] and not out.exists()
    assert _record_bytes(tuned_dir) == before and not (tuned_dir / "report.json").exists()


@pytest.mark.parametrize("key, value", [
    ("steps", 2.7), ("seeds", 2.5), ("m", [2.5]), ("batch_size", True), ("jobs", 1.0),
    ("eta", "abc"), ("steps", None), ("beta_start", "x"),
])
def test_tune_flag_and_config_forms_get_the_same_exit_code(monkeypatch, data_files,
                                                           tmp_path, key, value):
    """A config value is parsed as its flag text would be: ``2.7`` fails an
    integer option either way instead of truncating to 2."""
    from promptsearch import cli

    monkeypatch.setattr(cli, "run_chain", lambda *args: pytest.fail("chain ran"))
    flag_text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    by_flag = main(tune_args(data_files, tmp_path / "flag", **{key: flag_text}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    by_config = main(tune_args(data_files, tmp_path / "config", **{key: None})
                     + ["--config", str(config)])
    assert by_flag == by_config == 2


# -- records checked against --task and --model; distinct seeds -------------------------

def _chains_args(command, tuned_dir, data_files, task_args, model):
    return [command, *task_args, "--chains", str(tuned_dir), "--data", data_files["val"],
            "--model", model]


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("mismatch", ["model", "task"])
def test_chains_tuned_for_another_task_or_model_exit_2_unchanged(
        data_files, tuned_dir, tmp_path, capsys, command, mismatch):
    task_args, model = ["--task", "synthetic-2label"], "reference:1"
    if mismatch == "model":
        model = "reference:5"
    else:
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            "id": "other", "template": "{x} it was",
            "verbalizer": {"good": "good", "bad": "bad"},
            "domain_string": "this is a review",
        }))
        task_args = ["--task-file", str(other)]
    before = _record_bytes(tuned_dir)
    assert main(_chains_args(command, tuned_dir, data_files, task_args, model)) == 2
    tuned_for = "reference:1" if mismatch == "model" else "synthetic-2label"
    _one_error_line(capsys, "chain_000_seed0.json", tuned_for)
    assert _record_bytes(tuned_dir) == before  # no record, manifest or report written


def test_chains_without_model_spec_are_scored_under_any_model(data_files, tuned_dir):
    for path in tuned_dir.glob("chain_*.json"):
        doc = json.loads(path.read_text())
        doc["config"]["model_spec"] = None
        path.write_text(json.dumps(doc))
    assert main(_chains_args("eval", tuned_dir, data_files,
                             ["--task", "synthetic-2label"], "reference:5")) == 0


@pytest.mark.parametrize("in_config", [False, True])
def test_tune_repeated_seeds_exit_2_before_writing(data_files, tmp_path, capsys, in_config):
    out = tmp_path / "repeated"
    args = tune_args(data_files, out, seeds=None if in_config else "1,1")
    if in_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seeds": [1, 1]}))
        args += ["--config", str(config)]
    assert main(args) == 2
    _one_error_line(capsys, "seeds", "distinct")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("m", [3, 3]),
    ("eta", [0.5, 1.0, 0.5]),
    ("lambda_fluency", [0.0, 0.0]),
    ("lambda_domain", [0.1, 0.1]),
])
@pytest.mark.parametrize("in_config", [False, True])
def test_tune_repeated_grid_value_exits_2_before_writing(data_files, tmp_path, capsys,
                                                         in_config, key, value):
    """A value named twice in a grid would run byte-identical chains under two
    file names; it is refused like a repeated seed, flag and config alike."""
    out = tmp_path / "repeated"
    mode = "unsupervised" if key == "lambda_domain" else "supervised"
    flag = None if in_config else ",".join(map(str, value))
    args = tune_args(data_files, out, mode=mode, **{key: flag})
    if in_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        args += ["--config", str(config)]
    assert main(args) == 2
    _one_error_line(capsys, key, "distinct")
    assert not out.exists()


# -- unwritable report paths and infinite step sizes ----------------------------------

@pytest.mark.parametrize("report", ["taken", "missing/report.json"])
@pytest.mark.parametrize("in_config", [False, True])
def test_analyze_unwritable_report_exits_2_before_loading_a_model(
        monkeypatch, data_files, tmp_path, capsys, report, in_config):
    """A report path naming a directory, or under a missing one, is refused
    before any scoring or generation runs."""
    from promptsearch import cli

    loaded = []
    monkeypatch.setattr(cli, "load_adapter", lambda spec: loaded.append(spec))
    (tmp_path / "taken").mkdir()
    path = str(tmp_path / report)
    args = ["analyze", "--task", "synthetic-2label", "--chains", str(data_files["root"])]
    if in_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"report": path}))
        args += ["--config", str(config)]
    else:
        args += ["--report", path]
    assert main(args) == 2
    _one_error_line(capsys, "report", path)
    assert loaded == [] and not (tmp_path / "missing").exists()


def test_analyze_default_report_naming_a_directory_exits_2_before_loading_a_model(
        monkeypatch, data_files, tuned_dir, capsys):
    """Without ``--report``, ``<chains>/report.json`` gets the same check."""
    from promptsearch import cli

    loaded = []
    monkeypatch.setattr(cli, "load_adapter", lambda spec: loaded.append(spec))
    (tuned_dir / "report.json").mkdir()
    before = {p.name: p.read_bytes() for p in tuned_dir.glob("*.json") if p.is_file()}
    assert main(["analyze", "--task", "synthetic-2label", "--chains", str(tuned_dir),
                 "--data", data_files["val"], "--model", "reference:1"]) == 2
    _one_error_line(capsys, "report", str(tuned_dir / "report.json"))
    assert loaded == []
    assert {p.name: p.read_bytes() for p in tuned_dir.glob("*.json") if p.is_file()} \
        == before


@pytest.mark.parametrize("baseline", [
    None, "--include-empty", "--human-prompts", "--random-prompts",
])
def test_analyze_accuracy_without_data_exits_2_before_loading_a_model(
        monkeypatch, data_files, tmp_path, capsys, baseline):
    """Baseline prompts, and records that carry no accuracy, need ``--data``;
    without it ``analyze`` stops before any model loads or any scoring runs."""
    from promptsearch import cli

    chains = tmp_path / "chains"
    # with no baseline the records carry no accuracy; with one they do
    val = data_files["val"] if baseline else None
    assert main(tune_args(data_files, chains, val_data=val)) == 0
    args = ["analyze", "--task", "synthetic-2label", "--chains", str(chains),
            "--model", "reference:1", "--continuations", "20"]
    if baseline == "--include-empty":
        args.append(baseline)
    elif baseline:
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("old cold dull\n")
        args += [baseline, str(prompts)]
    loaded = []
    monkeypatch.setattr(cli, "load_adapter", lambda spec: loaded.append(spec))
    before = _record_bytes(chains)
    capsys.readouterr()
    assert main(args) == 2
    _one_error_line(capsys, "--data")
    assert loaded == []
    assert not (chains / "report.json").exists()
    assert _record_bytes(chains) == before


@pytest.mark.parametrize("options", [
    {"eta": "inf"}, {"beta_start": "inf"}, {"beta_start": "inf", "beta_end": "inf"},
])
@pytest.mark.parametrize("in_config", [False, True])
def test_tune_infinite_step_size_exits_2_before_writing(data_files, tmp_path, capsys,
                                                        options, in_config):
    out = tmp_path / "inf"
    args = tune_args(data_files, out, **{k: None if in_config else v
                                         for k, v in options.items()})
    if in_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({k: float(v) for k, v in options.items()}))
        args += ["--config", str(config)]
    assert main(args) == 2
    _one_error_line(capsys, "finite", "inf")
    assert not out.exists()


# -- empty data and prompt files, overflowing step sizes ---------------------------------

@pytest.fixture
def no_model(monkeypatch):
    """The specs of every ``load_adapter`` call, none of which loads a model."""
    from promptsearch import cli

    loaded = []
    monkeypatch.setattr(cli, "load_adapter", lambda spec: loaded.append(spec))
    return loaded


@pytest.mark.parametrize("command, option", [
    ("tune", "--data"), ("tune", "--val-data"), ("eval", "--data"), ("analyze", "--data"),
])
def test_empty_data_file_exits_2_before_loading_a_model(data_files, tuned_dir, tmp_path,
                                                        capsys, no_model, command, option):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    out = tmp_path / "out"
    if command == "tune":
        args = tune_args(data_files, out, val_data=data_files["val"])
    else:
        args = [command, "--task", "synthetic-2label", "--chains", str(tuned_dir),
                "--data", data_files["val"], "--model", "reference:1"]
    args[args.index(option) + 1] = str(empty)
    before = _record_bytes(tuned_dir)
    capsys.readouterr()
    assert main(args) == 2
    _one_error_line(capsys, str(empty))
    assert no_model == [] and not out.exists()
    assert _record_bytes(tuned_dir) == before and not (tuned_dir / "report.json").exists()


def test_eval_prompt_file_without_prompts_exits_2_before_loading_a_model(
        data_files, tmp_path, capsys, no_model):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("\n   \n")
    args = ["eval", "--task", "synthetic-2label", "--prompts", str(prompts),
            "--data", data_files["val"], "--model", "reference:1"]
    assert main(args) == 2
    _one_error_line(capsys, str(prompts))
    assert no_model == []


@pytest.mark.parametrize("options", [
    {"eta": "1e308"}, {"eta": "1e200", "beta_start": "1e200", "beta_end": "1e199"},
])
def test_tune_overflowing_step_size_faults_each_chain_and_keeps_the_grid(
        data_files, tmp_path, capsys, options):
    """A finite step size whose noise scale overflows is a chain fault: every
    chain keeps a partial record with ``fault`` and the manifest lists them."""
    out = tmp_path / "huge"
    assert main(tune_args(data_files, out, **options)) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    files = [entry["file"] for entry in manifest["chains"]]
    assert files == ["chain_000_seed0.json", "chain_000_seed1.json"]
    for name in files:
        record = json.loads((out / name).read_text())
        assert record["fault"] == "non-finite proposal at step 0"
    assert capsys.readouterr().err.count("non-finite proposal") == 2


# -- reading input files -------------------------------------------------------------

_NOT_UTF8 = b'{"text": "caf\xe9"}\n'


def _run_args(command, tuned_dir, data_files, out):
    """Arguments of a ``command`` run that succeeds, reading every input it takes."""
    if command == "tune":
        return tune_args(data_files, out, val_data=data_files["val"])
    return [command, "--task", "synthetic-2label", "--chains", str(tuned_dir),
            "--data", data_files["val"], "--model", "reference:1"]


@pytest.mark.parametrize("content", [None, _NOT_UTF8], ids=["directory", "not-utf8"])
@pytest.mark.parametrize("command, option", [
    ("tune", "--config"), ("tune", "--task-file"), ("tune", "--data"),
    ("tune", "--val-data"), ("eval", "--data"), ("eval", "--prompts"),
    ("analyze", "--data"), ("analyze", "--human-prompts"),
    ("analyze", "--random-prompts"),
])
def test_unreadable_input_file_exits_2_naming_it_before_loading_a_model(
        data_files, tuned_dir, tmp_path, capsys, no_model, command, option, content):
    """A directory, or a file that is not UTF-8, given for any input file is one
    ``error:`` line naming it; a prompt, data or task file that is not UTF-8
    once ended in a traceback, and a config directory was reported as missing."""
    bad = tmp_path / "input.txt"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    out = tmp_path / "out"
    args = _run_args(command, tuned_dir, data_files, out)
    if option == "--prompts":
        args[args.index("--chains"):args.index("--chains") + 2] = []
    if option == "--task-file":
        args[args.index("--task"):args.index("--task") + 2] = []
    if option in args:
        args[args.index(option) + 1] = str(bad)
    else:
        args += [option, str(bad)]
    before = _record_bytes(tuned_dir)
    capsys.readouterr()
    assert main(args) == 2
    _one_error_line(capsys, str(bad))
    assert no_model == [] and not out.exists()
    assert _record_bytes(tuned_dir) == before and not (tuned_dir / "report.json").exists()


@pytest.mark.parametrize("option", ["--config", "--task-file"])
@pytest.mark.parametrize("content", ["[]", "5", '"text"', "{"])
def test_json_input_that_is_not_an_object_exits_2_naming_it(data_files, tmp_path,
                                                            capsys, no_model, option,
                                                            content):
    """A task file holding ``[]`` once ended in a ``TypeError`` traceback."""
    bad = tmp_path / "input.json"
    bad.write_text(content)
    out = tmp_path / "out"
    args = tune_args(data_files, out, task=None if option == "--task-file" else
                     "synthetic-2label")
    assert main(args + [option, str(bad)]) == 2
    _one_error_line(capsys, str(bad))
    assert no_model == [] and not out.exists()


@pytest.mark.parametrize("path, shown", [("a\nb", "a\\nb"), ("a\0b", "a\0b")])
def test_data_path_with_a_line_break_or_nul_exits_2_with_one_line(
        data_files, tmp_path, capsys, no_model, path, shown):
    """A NUL in a path from the config file once ended in a ``ValueError``
    traceback, and a line break split the error over two lines."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": path}))
    assert main(["eval", "--task", "synthetic-2label", "--config", str(config),
                 "--prompts", str(tmp_path / "prompts.txt")]) == 2
    _one_error_line(capsys, f"cannot read dataset {shown}")
    assert no_model == []


@pytest.mark.parametrize("in_config", [False, True])
def test_tune_out_dir_with_a_nul_exits_2_before_loading_a_model(
        data_files, tmp_path, capsys, no_model, in_config):
    """A NUL in ``out_dir`` once passed the check, and ``tune`` ended in a
    ``ValueError`` traceback after loading the model."""
    out = str(tmp_path / "a\0b")
    args = tune_args(data_files, out)
    if in_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": out}))
        args = tune_args(data_files, out, **{"out-dir": None}) + ["--config", str(config)]
    before = sorted(tmp_path.iterdir())
    assert main(args) == 2
    _one_error_line(capsys, "out_dir")
    assert no_model == [] and sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("in_config", [False, True])
def test_analyze_report_with_a_nul_exits_2_before_loading_a_model(
        data_files, tuned_dir, tmp_path, capsys, no_model, in_config):
    """A NUL in ``report`` once passed the check, and ``analyze`` scored every
    row before ending in a ``ValueError`` traceback."""
    report = str(tmp_path / "r\0.json")
    args = ["analyze", "--task", "synthetic-2label", "--chains", str(tuned_dir),
            "--data", data_files["val"], "--model", "reference:1"]
    if in_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"report": report}))
        args += ["--config", str(config)]
    else:
        args += ["--report", report]
    before = _record_bytes(tuned_dir)
    assert main(args) == 2
    _one_error_line(capsys, "report")
    assert no_model == [] and _record_bytes(tuned_dir) == before


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("record", ["directory", "not-utf8"])
def test_unreadable_chain_record_exits_2_naming_it_before_loading_a_model(
        data_files, tuned_dir, tmp_path, capsys, no_model, command, record):
    """A directory named ``chain_x.json`` among the records once ended in an
    ``IsADirectoryError`` traceback."""
    before = _record_bytes(tuned_dir)
    bad = tuned_dir / "chain_x.json"
    if record == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(_NOT_UTF8)
    capsys.readouterr()
    assert main(_run_args(command, tuned_dir, data_files, None)) == 2
    _one_error_line(capsys, str(bad))
    assert no_model == [] and not (tuned_dir / "report.json").exists()
    if record == "directory":
        bad.rmdir()
    else:
        bad.unlink()
    assert _record_bytes(tuned_dir) == before


@pytest.mark.parametrize("field, value", [
    ("id", 5), ("template", 5), ("verbalizer", "ab"), ("domain_string", 5),
    ("domain_words", "review"),
])
def test_task_file_field_of_the_wrong_type_exits_2(data_files, tmp_path, capsys,
                                                   no_model, field, value):
    """``"template": 5`` and ``"verbalizer": "ab"`` once ended in tracebacks, and
    ``"domain_words": "review"`` was read as six one-letter domain words."""
    doc = {"id": "custom", "template": "{x} it was",
           "verbalizer": {"good": "good", "bad": "bad"},
           "domain_string": "this is a review", "domain_words": ["review"]}
    doc[field] = value
    task = tmp_path / "task.json"
    task.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(tune_args(data_files, out, task=None, task_file=str(task))) == 2
    _one_error_line(capsys, field)
    assert no_model == [] and not out.exists()


@pytest.mark.parametrize("word", ["", "good movie"])
def test_task_file_with_a_domain_word_that_is_not_a_word_exits_2(
        data_files, tmp_path, capsys, no_model, word):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"id": "custom", "template": "{x} it was",
                                "verbalizer": {"good": "good", "bad": "bad"},
                                "domain_string": "this is a review",
                                "domain_words": ["review", word]}))
    out = tmp_path / "out"
    assert main(tune_args(data_files, out, task=None, task_file=str(task))) == 2
    _one_error_line(capsys, "domain_words must be words")
    assert no_model == [] and not out.exists()


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("field, value", [
    (("final_prompt_text",), 5), (("metrics",), {"accuracy": "high"}),
    (("steps", 0, "energy", "terms"), [[1, 2.0], ["task", 3.0]]),
])
def test_record_field_of_the_wrong_type_exits_2_before_writing(
        data_files, tuned_dir, capsys, no_model, command, field, value):
    """A numeric prompt text, a string metric and energy terms as pairs once
    loaded; ``eval`` or ``analyze`` then ended in a traceback, and ``eval``
    after rewriting the records before it."""
    path = tuned_dir / "chain_000_seed1.json"
    path.write_text(json.dumps(_with_field(json.loads(path.read_text()), field, value)))
    before = _record_bytes(tuned_dir)
    capsys.readouterr()
    assert main(_run_args(command, tuned_dir, data_files, None)) == 2
    _one_error_line(capsys, "chain_000_seed1.json")
    assert no_model == [] and _record_bytes(tuned_dir) == before
    assert not (tuned_dir / "report.json").exists()


@pytest.mark.parametrize("text", ["", " "])
@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_record_prompt_without_words_exits_2_before_any_output(
        data_files, tuned_dir, capsys, command, text):
    """An empty prompt text skipped the fit check and ``dist1``, so ``eval``
    printed its table header and a row before failing on that record."""
    _set_record_fields(tuned_dir / "chain_000_seed1.json", final_prompt_text=text)
    before = _record_bytes(tuned_dir)  # the records and the manifest
    capsys.readouterr()
    assert main(_run_args(command, tuned_dir, data_files, None)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert "chain_000_seed1.json" in err
    assert _record_bytes(tuned_dir) == before
    assert not (tuned_dir / "report.json").exists()


# -- eval and analyze branches ---------------------------------------------------------

def _set_record_fields(path, **fields):
    record = load_record(path)
    save_record(dataclasses.replace(record, **fields), path)


def test_eval_one_token_prompt_prints_and_stores_no_perplexity(data_files, tuned_dir,
                                                               capsys):
    _set_record_fields(tuned_dir / "chain_000_seed0.json", final_prompt_text="good")
    capsys.readouterr()
    assert main(_eval_chains(tuned_dir, data_files)) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("good "))
    assert row.split()[2:] == ["-", "-"]
    one = load_record(tuned_dir / "chain_000_seed0.json").metrics
    assert "accuracy" in one and "perplexity" not in one and "log_perplexity" not in one
    other = load_record(tuned_dir / "chain_000_seed1.json").metrics
    assert {"accuracy", "perplexity", "log_perplexity"} <= set(other)


def test_eval_chains_without_manifest_rewrites_records_and_creates_none(data_files,
                                                                        tuned_dir):
    (tuned_dir / "manifest.json").unlink()
    assert main(_eval_chains(tuned_dir, data_files)) == 0
    assert all("accuracy" in load_record(path).metrics
               for path in tuned_dir.glob("chain_*.json"))
    assert not (tuned_dir / "manifest.json").exists()


def test_analyze_prints_spearman_over_three_tuned_rows(data_files, tuned_dir, capsys):
    shutil.copy(tuned_dir / "chain_000_seed1.json", tuned_dir / "chain_000_seed2.json")
    for path, text, acc in zip(sorted(tuned_dir.glob("chain_*.json")),
                               ["good good good", "bad bad bad", "the movie was"],
                               [0.9, 0.5, 0.7]):
        _set_record_fields(path, final_prompt_text=text, metrics={"accuracy": acc})
    capsys.readouterr()
    assert main(["analyze", "--task", "synthetic-2label", "--chains", str(tuned_dir),
                 "--model", "reference:1"]) == 0
    rho = json.loads((tuned_dir / "report.json").read_text())["spearman"]["rho"]
    assert f"spearman(entropy, accuracy): rho={rho:+.3f} p=" in capsys.readouterr().out


# -- every input file, generated ---------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6)
_DELETE = object()


def _field_paths(doc, prefix=()):
    """The key or index path of every field nested in the JSON value ``doc``."""
    fields = (doc.items() if isinstance(doc, dict)
              else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in fields:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _with_field(doc, path, value):
    """A copy of ``doc`` whose field at ``path`` is deleted or set to ``value``."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def _file_bytes(name, doc) -> bytes:
    """The file ``name`` holding ``doc``: a JSON document, or for the data and
    prompt files a list of lines (data lines as JSON, prompt strings as is)."""
    if name == "data":
        return "\n".join(json.dumps(line) for line in doc).encode()
    if name == "prompts":
        return "\n".join(v if isinstance(v, str) else json.dumps(v)
                         for v in doc).encode()
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def valid_inputs(data_files, tmp_path_factory):
    """A document per input file of one working ``eval`` run."""
    chains = tmp_path_factory.mktemp("inputs") / "chains"
    assert main(tune_args(data_files, chains, steps="2")) == 0
    val = Path(data_files["val"]).read_text().splitlines()[:4]
    return {
        "config": {"model": "reference:1", "data": "val.jsonl", "include_empty": True},
        "task": {"id": "synthetic-2label", "template": "{x} it was",
                 "verbalizer": {"good": "good", "bad": "bad"},
                 "domain_string": "this is a review", "domain_words": ["review"]},
        "data": [json.loads(line) for line in val],
        "prompts": ["the movie was great", "good"],
        "record": json.loads((chains / "chain_000_seed0.json").read_text()),
        "other record": json.loads((chains / "chain_000_seed1.json").read_text()),
        "manifest": json.loads((chains / "manifest.json").read_text()),
    }


_FILES = {"config": "config.json", "task": "task.json", "data": "val.jsonl",
          "prompts": "prompts.txt", "record": "chains/chain_000_seed0.json",
          "other record": "chains/chain_000_seed1.json",
          "manifest": "chains/manifest.json"}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_eval_on_any_input_file_exits_0_1_or_2_and_never_raises(valid_inputs, data):
    """``eval`` with one input file written as arbitrary bytes, an arbitrary
    JSON value, or a valid file with one field deleted or replaced.  It
    returns 0, 1 or 2; on 2 it prints one ``error:`` line and leaves every
    record's bytes as they were."""
    name = data.draw(st.sampled_from(["config", "task", "data", "prompts", "record",
                                      "manifest"]), label="input")
    form = data.draw(st.sampled_from(["bytes", "json", "field"]), label="form")
    if form == "bytes":
        content = data.draw(st.binary(max_size=40), label="bytes")
    elif form == "json":
        content = json.dumps(data.draw(_JSON, label="value")).encode()
    else:
        doc = valid_inputs[name]
        path = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
        value = data.draw(st.just(_DELETE) | _JSON, label="value")
        content = _file_bytes(name, _with_field(doc, path, value))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "chains").mkdir()
        for key, doc in valid_inputs.items():
            (root / _FILES[key]).write_bytes(_file_bytes(key, doc))
        (root / _FILES[name]).write_bytes(content)
        records = {p: p.read_bytes() for p in (root / "chains").glob("chain_*.json")}
        source = (["--prompts", str(root / "prompts.txt")] if name == "prompts"
                  else ["--chains", str(root / "chains")])
        args = ["eval", "--config", str(root / "config.json"),
                "--task-file", str(root / "task.json"), *source]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # a relative path in the config names a file here
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(args)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert {p: p.read_bytes() for p in records} == records


# -- every option, generated ---------------------------------------------------------

_ROWS = [(command, row[0]) for command, (_, table) in sorted(_COMMANDS.items())
         for row in table]
# A valid value of every option, as flag text; paths name what
# `option_inputs` writes into the run's directory.
_VALID = {
    "task": ["synthetic-2label"], "task_file": ["task.json"], "model": ["reference:1"],
    "data": ["val.jsonl"], "val_data": ["val.jsonl"], "out_dir": ["out", "new/out"],
    "mode": ["supervised", "unsupervised"], "m": ["1", "2,3"], "steps": ["1", "3"],
    "batch_size": ["1", "3"], "eta": ["0.5", "0.1,0.5"], "beta_start": ["1.0", "0"],
    "beta_end": ["1e-4", "0"], "lambda_fluency": ["0.1", "0,0.5"],
    "lambda_domain": ["0.1"], "energy_sign": ["intent", "literal"],
    "optimizer": ["plain", "adaptive"], "seeds": ["1", "0,2", "3,"],
    "allowed_vocab": ["all", "no-special"], "init_text": ["the movie"],
    "jobs": ["1", "2"], "chains": ["chains"], "prompts": ["prompts.txt"],
    "include_empty": [True, False], "human_prompts": ["prompts.txt"],
    "random_prompts": ["prompts.txt"], "report": ["report.json", "chains/report.json"],
    "effective_quantile": ["0.5", "1"], "continuations": ["0", "2"],
    "nucleus_p": ["0.9", "1"], "continuation_length": ["1", "3"],
    "continuation_seed": ["0", "7"],
}
_GRIDS = {"m", "eta", "lambda_fluency", "lambda_domain", "seeds"}
_SWITCHES = {"include_empty"}
_PATHS = {"task_file", "data", "val_data", "out_dir", "chains", "prompts",
          "human_prompts", "random_prompts", "report"}
# Options that set how much a run computes.  Their numbers are drawn no larger
# than 3 (and their texts hold no digits), so every run takes milliseconds:
# at most 3 steps, 3 chains, 2 jobs and 3-token continuations.
_SIZES = {"steps", "batch_size", "seeds", "jobs", "continuations", "continuation_length"}
# Texts at or past an edge: empty, blank, zero, negative, NaN, infinite,
# fractional, overflowing, and grids that are empty or name a value twice.
_EDGES = ["", " ", "0", "-1", "nan", "inf", "-inf", "2.5", "1e400", ",", "1,1", "-1,2"]
# JSON values of the wrong type for most options.
_WRONG_TYPES = [True, None, [], [1, 1], {"a": 1}]
# Paths of the wrong kind: holding a NUL, naming a directory or an existing
# file, or under a missing directory.
_BAD_PATHS = ["a\0b", "adir", "afile.txt", "missing/x.json"]
# A seed count past any list's length, and specs naming the reference model
# with a seed it cannot take.
_MORE = {"seeds": ["1" + "0" * 30],
         "model": ["reference:-1", "reference:x", "reference:", "other:1"]}
# Options each command needs to run; the option under test replaces its own.
_BASE = {
    "tune": {"task": "synthetic-2label", "data": "train.jsonl", "out_dir": "out",
             "steps": "2", "m": "2", "batch_size": "2", "seeds": "1",
             "model": "reference:1"},
    "eval": {"task": "synthetic-2label", "data": "val.jsonl", "prompts": "prompts.txt",
             "model": "reference:1"},
    "analyze": {"task": "synthetic-2label", "chains": "chains", "data": "val.jsonl",
                "model": "reference:1", "continuation_length": "3"},
}


def _edge_values(key) -> list:
    """The values every option ``key`` meets: its valid values, the edge
    texts, wrong JSON types and, for a path, paths of the wrong kind."""
    return (_VALID[key] + _EDGES + _WRONG_TYPES + _MORE.get(key, [])
            + (_BAD_PATHS if key in _PATHS else []))


def _option_values(key):
    """Any value of the option ``key``, as a config file holds it."""
    if key in _SIZES:
        ints = st.integers(-3, 2 if key == "jobs" else 3)
        texts = st.text(max_size=6).filter(lambda t: not any(c.isdigit() for c in t))
    else:
        ints, texts = st.integers(), st.text(max_size=6)
    numbers = ints | st.floats()
    return (st.sampled_from(_edge_values(key)) | texts | numbers | numbers.map(str)
            | st.booleans() | st.lists(numbers, max_size=3)
            | st.dictionaries(st.text(max_size=2), numbers, max_size=1))


def _flag_form(key, value):
    """The command-line arguments that carry the config value ``value``, or
    None when no flag can: a switch is present or absent, a grid is its
    values joined by commas (one value keeps a trailing comma, so a seed
    list of one is not read as a count), and any other value is its text."""
    flag = "--" + key.replace("_", "-")
    if key in _SWITCHES:
        return {True: [flag], False: []}.get(value) if isinstance(value, bool) else None
    if isinstance(value, list):
        if key not in _GRIDS:
            return None
        return [f"{flag}={','.join(map(str, value))}" + ("," if len(value) == 1 else "")]
    if value is None or isinstance(value, dict):
        return None
    return [f"{flag}={value}"]  # the `=` form carries a text that starts with a dash


@pytest.fixture(scope="module")
def option_inputs(data_files, tmp_path_factory):
    """The files every generated run finds in its directory, by name."""
    root = tmp_path_factory.mktemp("option-inputs")
    assert main(tune_args(data_files, root / "chains", steps="2", m="2")) == 0
    val = Path(data_files["val"]).read_text().splitlines()[:4]
    files = {
        "train.jsonl": "\n".join(val) + "\n", "val.jsonl": "\n".join(val) + "\n",
        "task.json": json.dumps({"id": "synthetic-2label", "template": "{x} it was",
                                 "verbalizer": {"good": "good", "bad": "bad"},
                                 "domain_string": "this is a review"}),
        "prompts.txt": "the movie was\ngood\n", "afile.txt": "not a directory\n",
    }
    files.update({f"chains/{p.name}": p.read_text()
                  for p in sorted((root / "chains").glob("*.json"))})
    return files


def _tree(root: Path) -> dict:
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def _run_in_directory(inputs, args) -> tuple[int, str, bool]:
    """``main(args)`` in a fresh directory holding ``inputs``: the exit code,
    stderr, and whether the directory's files are as they were."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "adir").mkdir()
        for name, text in inputs.items():
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_text(text)
        before = _tree(root)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(args)
        finally:
            os.chdir(cwd)
        return code, err.getvalue(), _tree(root) == before


def _check_option(inputs, command, key, value):
    """Run ``command`` with the option ``key`` set to ``value``, once in the
    config file and once as a flag (when a flag can carry it).  ``main``
    returns 0, 1 or 2 and never raises; on 2 it prints one ``error:`` line
    and leaves every file as it was (``tune`` creates no ``--out-dir``);
    both forms exit alike."""
    base = dict(_BASE[command])
    base.pop(key, None)
    if key == "task_file":
        del base["task"]
    if key == "chains" and command == "eval":
        del base["prompts"]
    args = [command] + [f"--{k.replace('_', '-')}={v}" for k, v in base.items()]
    by_config = _run_in_directory({**inputs, "config.json": json.dumps({key: value})},
                                  args + ["--config", "config.json"])
    flag = _flag_form(key, value)
    by_flag = None if flag is None else _run_in_directory(inputs, args + flag)
    for code, err, unchanged in filter(None, (by_config, by_flag)):
        assert code in (0, 1, 2), (command, key, value, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, \
                (command, key, value, err)
            assert unchanged, (command, key, value, err)
    if by_flag is not None:
        assert by_flag[0] == by_config[0], (command, key, value, by_flag, by_config)


def test_generated_options_cover_every_row():
    assert set(_VALID) == {key for _, key in _ROWS}


def test_every_option_at_each_edge_exits_0_1_or_2_alike_as_flag_and_config(
        option_inputs):
    for command, key in _ROWS:
        for value in _edge_values(key):
            _check_option(option_inputs, command, key, value)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(data=st.data())
def test_any_option_value_exits_0_1_or_2_alike_as_flag_and_config(option_inputs, data):
    command, key = data.draw(st.sampled_from(_ROWS), label="option")
    _check_option(option_inputs, command, key, data.draw(_option_values(key), label="value"))


# -- a config `null`, the batch bound and chain values, each before any file is read ---

@pytest.mark.parametrize("command, key", _ROWS)
def test_config_null_exits_2_naming_the_key_and_leaves_every_file(option_inputs,
                                                                 command, key):
    """A JSON ``null`` is refused for every key, with or without a default;
    leaving the key out is how to get its default."""
    base = {k: v for k, v in _BASE[command].items() if k != key}
    args = [command] + [f"--{k.replace('_', '-')}={v}" for k, v in base.items()]
    code, err, unchanged = _run_in_directory(
        {**option_inputs, "config.json": json.dumps({key: None})},
        args + ["--config", "config.json"])
    assert (code, err) == (2, f"error: invalid value for {key}: None\n")
    assert unchanged


def _four_examples(data_files, tmp_path, kind):
    path = tmp_path / f"four-{kind}.jsonl"
    path.write_text("\n".join(Path(data_files[kind]).read_text().splitlines()[:4]) + "\n")
    return str(path)


@pytest.mark.parametrize("mode, kind", [("supervised", "train"),
                                        ("unsupervised", "unlabeled")])
def test_tune_batch_larger_than_the_data_exits_2_before_writing(data_files, tmp_path,
                                                                capsys, mode, kind):
    out = tmp_path / "out"
    args = tune_args(data_files, out, data=_four_examples(data_files, tmp_path, kind),
                     batch_size="5", mode=mode)
    assert main(args) == 2
    _one_error_line(capsys, "batch_size 5", "4 examples")
    assert not out.exists()


def test_tune_huge_batch_exits_2_before_loading_a_model(monkeypatch, data_files,
                                                        tmp_path, capsys):
    """A batch size no data file can fill fails before the model loads, and
    never reaches a chain (which would fill its first batch forever)."""
    from promptsearch import cli

    monkeypatch.setattr(cli, "load_adapter", lambda spec: pytest.fail("model loaded"))
    monkeypatch.setattr(cli, "run_chain", lambda *args: pytest.fail("chain ran"))
    huge = "1" + "0" * 30
    out = tmp_path / "out"
    assert main(tune_args(data_files, out, batch_size=huge)) == 2
    _one_error_line(capsys, f"batch_size {huge}", "20 examples")
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    ({"eta": "0"}, "eta must be positive and finite, got 0.0"),
    ({"batch_size": "0"}, "steps, batch_size and prompt_length must be >= 1"),
    ({"m": "0"}, "steps, batch_size and prompt_length must be >= 1"),
    ({"optimizer": "x"}, "unknown optimizer 'x'"),
    ({"allowed_vocab": "x"}, "unknown allowed_vocab 'x'"),
    ({"lambda_fluency": "2"}, "lambda_fluency must lie in [0, 1], got 2.0"),
    ({"mode": "unsupervised", "lambda_domain": "-0.5"},
     "lambda_domain must lie in [0, 1], got -0.5"),
    ({"mode": "unsupervised", "energy_sign": "x"}, "unknown energy sign 'x'"),
])
def test_tune_chain_value_errors_come_before_any_file_is_read(monkeypatch, data_files,
                                                              tmp_path, capsys, extra,
                                                              message):
    from promptsearch import cli

    monkeypatch.setattr(cli, "load_adapter", lambda spec: pytest.fail("model loaded"))
    out = tmp_path / "out"
    assert main(tune_args(data_files, out, data=str(tmp_path / "missing.jsonl"),
                          **extra)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# -- config values no flag text can carry ---------------------------------------------

_NOT_GRIDS_OR_SWITCHES = [(command, key) for command, key in _ROWS
                          if key not in _GRIDS | _SWITCHES]


@pytest.mark.parametrize("value", [["x"], {"a": 1}])
@pytest.mark.parametrize("command, key", _NOT_GRIDS_OR_SWITCHES)
def test_config_list_or_object_outside_a_grid_exits_2_naming_the_key(
        option_inputs, command, key, value):
    """Such a value was once read as its Python repr (``{"out_dir": ["w/o"]}``
    wrote under a directory named ``['w``).  It is refused, and a flag for
    the same key does not hide it."""
    args = [command] + [f"--{k.replace('_', '-')}={v}" for k, v in _BASE[command].items()]
    code, err, unchanged = _run_in_directory(
        {**option_inputs, "config.json": json.dumps({key: value})},
        args + ["--config", "config.json"])
    assert (code, err) == (2, f"error: invalid value for {key}: {value!r}\n")
    assert unchanged


# -- label words and lengths checked before eval or analyze prints -------------------

@pytest.mark.parametrize("command, fault", [
    ("eval", "label word"), ("eval", "prompt length"), ("analyze", "label word"),
    ("analyze", "prompt length"), ("analyze", "domain string"),
])
def test_label_word_or_length_past_max_len_exits_2_before_any_output(
        data_files, tuned_dir, tmp_path, capsys, command, fault):
    """A label word that is not one token of the model, or a prompt that with
    an input (or, for analyze, the domain string) exceeds ``max_len``, exits
    2 before a table row, record or report is written."""
    task = {"id": "synthetic-2label", "template": "{x} it was",
            "verbalizer": {"good": "good", "bad": "bad"},
            "domain_string": "this is a review"}
    if fault == "label word":
        task["verbalizer"]["bad"] = "zzzz"
    if fault == "domain string":
        task["domain_string"] = " ".join(["review"] * 170)
    (tmp_path / "task.json").write_text(json.dumps(task))
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("the movie was\n"
                       + (" ".join(["good"] * 155) if fault == "prompt length" else "")
                       + "\n")
    args = [command, "--task-file", str(tmp_path / "task.json"), "--data",
            data_files["val"], "--model", "reference:1"]
    args += (["--prompts", str(prompts)] if command == "eval"
             else ["--chains", str(tuned_dir), "--human-prompts", str(prompts)])
    before = _record_bytes(tuned_dir)
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert ("zzzz" if fault == "label word" else "max_len 160") in captured.err
    assert _record_bytes(tuned_dir) == before and not (tuned_dir / "report.json").exists()


@pytest.mark.parametrize("command", ["tune", "eval"])
def test_empty_config_path_exits_2_with_one_line(data_files, tmp_path, capsys, command):
    """``--config ""`` names no file: it is refused like any other config path
    that cannot be read, not taken as no config at all."""
    out = tmp_path / "out"
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("the movie\n")
    args = (tune_args(data_files, out) if command == "tune" else
            ["eval", "--task", "synthetic-2label", "--data", data_files["val"],
             "--prompts", str(prompts)])
    capsys.readouterr()
    assert main(args + ["--config", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "config file" in captured.err
    assert not out.exists()


_PATH_OPTIONS = [
    ("tune", "config"), ("tune", "task_file"), ("tune", "data"), ("tune", "val_data"),
    ("tune", "out_dir"),
    ("eval", "config"), ("eval", "task_file"), ("eval", "chains"), ("eval", "prompts"),
    ("eval", "data"),
    ("analyze", "config"), ("analyze", "task_file"), ("analyze", "chains"),
    ("analyze", "data"), ("analyze", "human_prompts"), ("analyze", "random_prompts"),
    ("analyze", "report"),
]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command, key", _PATH_OPTIONS)
def test_empty_path_option_exits_2_naming_it_and_writes_nothing(
        data_files, tmp_path, monkeypatch, capsys, command, key, form):
    """``Path("")`` is the current directory: an empty path is refused before
    any output, not read as the directory or written into it."""
    inputs = tmp_path / "inputs"
    (inputs / "chains").mkdir(parents=True)
    prompts = inputs / "prompts.txt"
    prompts.write_text("the movie\n")
    options = {"task": "synthetic-2label", "model": "reference:1"}
    options.update({
        "tune": {"data": data_files["train"], "val_data": data_files["val"],
                 "out_dir": str(tmp_path / "out"), "steps": "2", "m": "3",
                 "batch_size": "4", "seeds": "1"},
        "eval": {"data": data_files["val"], "prompts": str(prompts)},
        "analyze": {"data": data_files["val"], "chains": str(inputs / "chains"),
                    "human_prompts": str(prompts), "random_prompts": str(prompts),
                    "report": str(inputs / "report.json")},
    }[command])
    if key == "chains":
        options.pop("prompts", None)
    argv = [command]
    if key == "config":
        argv += ["--config", ""]
    elif form == "flag":
        options[key] = ""
    else:
        config = inputs / "config.json"
        config.write_text(json.dumps({key: ""}))
        options.pop(key, None)
        argv += ["--config", str(config)]
    for name, value in options.items():
        argv += [f"--{name.replace('_', '-')}", value]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = sorted(p.name for p in inputs.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1, captured.err
    assert captured.err == {
        "config": "error: cannot read config file: the path is empty\n",
        "out_dir": "error: out_dir must be a directory or a new path, got ''\n",
        "report": "error: report must be a file path in an existing directory, got ''\n",
    }.get(key, f"error: {key} must be a non-empty path, got ''\n")
    assert list(cwd.iterdir()) == [] and not (tmp_path / "out").exists()
    assert sorted(p.name for p in inputs.rglob("*")) == before

