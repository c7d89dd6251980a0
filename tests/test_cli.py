"""Command-line interface: artifacts, precedence, exit codes, reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from promptsearch.cli import main
from promptsearch.metrics import dist1
from promptsearch.sampler import load_record
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


def test_tune_parallel_matches_serial(data_files, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(tune_args(data_files, serial)) == 0
    assert main(tune_args(data_files, parallel, jobs="2")) == 0
    for f in sorted(serial.glob("chain_*.json")):
        assert f.read_bytes() == (parallel / f.name).read_bytes()


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
