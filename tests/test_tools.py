"""The repository's tooling: the code-line counter
(``tools/count_code_lines.py``), the unreached-statement listers
(``tools/unreached.py`` over tests, ``tools/bench_traffic.py`` over the
benchmark's workloads), the benchmark fingerprints
(``tools/fingerprints.py``), the paired benchmark comparison
(``tools/bench_pairs.py``, on stub checkouts only), the chain profiler
(``tools/chain_profile.py``) and the pytest settings in ``pyproject.toml``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    path = _ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counter():
    return _tool("count_code_lines")


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment line
def f(x):
    """Docstring."""
    text = """a multi-line
    string that is not a docstring"""
    return (math.sqrt(x)
            + len(text))
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    # import, def, the two lines of `text`, the two lines of `return`
    assert _counter().code_lines(SOURCE) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _counter().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "6"], ["b.py", "1"],
                                                ["total", "7"]]



def test_prints_a_column_per_directory_and_the_change_from_the_first(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.py").write_text(SOURCE)
    (old / "gone.py").write_text("x = 1\ny = 2\n")
    (new / "a.py").write_text(SOURCE + "z = 3\n")
    (new / "b.py").write_text("x = 1\n")
    assert _counter().main([str(old), str(new), str(old)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "6", "7", "6", "+1", "+0"], ["b.py", "0", "1", "0", "+1", "+0"],
        ["gone.py", "2", "0", "2", "-2", "+0"], ["total", "8", "8", "8", "+0", "+0"]]


def test_unreached_lists_what_one_test_file_does_not_reach(tmp_path):
    """A test calling ``paired_ttest`` on good input reaches its arithmetic
    but none of its raise sites."""
    (tmp_path / "test_one.py").write_text(
        "from promptsearch.analysis import paired_ttest\n\n\n"
        "def test_one():\n"
        "    assert paired_ttest([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) < 1\n")
    run = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "unreached.py"), "-p", "no:cacheprovider",
         "test_one.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    source = (_ROOT / "src" / "promptsearch" / "analysis.py").read_text().splitlines()

    def listed(text):
        line = next(i for i, s in enumerate(source, 1) if s.strip() == text)
        return f"src/promptsearch/analysis.py:{line}: {text}" in run.stdout.splitlines()

    assert listed('raise UsageError("paired_ttest needs finite inputs")')
    assert not listed("t_stat = mean / (sd / math.sqrt(n))")
    assert "1 passed" in run.stdout
    assert run.stdout.splitlines()[-1].endswith(" unreached statements")


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """Warnings fail the suite, but Hypothesis's failure report must not."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in output and "INTERNALERROR" not in output, output


# perfbench's tiny input sizes (``TINY`` in perfbench/test_perfbench.py)
TINY = dict(train=8, val=8, steps=3, batch=4, prompt_len=3, score_examples=6,
            score_min_words=2, score_max_words=5, setup_chains=2, setup_steps=2,
            continuations=1, continuation_length=3)


def test_bench_traffic_lists_what_no_workload_reaches(capsys):
    """Every workload's round runs the model's forward pass, and none makes
    it produce non-finite logits."""
    assert _tool("bench_traffic").main([], sizes=TINY) == 0
    *listed, total = capsys.readouterr().out.splitlines()
    source = (_ROOT / "src" / "promptsearch" / "model.py").read_text().splitlines()

    def line_of(text):
        line = next(i for i, s in enumerate(source, 1) if s.strip() == text)
        return f"src/promptsearch/model.py:{line}: {text}"

    assert line_of('raise ModelFault("model produced non-finite logits")') in listed
    assert line_of("logits = _exact_matmul(hidden, self._E.T)") not in listed
    assert total == f"{len(listed)} unreached statements"


def test_fingerprints_repeat_with_one_line_per_workload_and_seed(capsys):
    """One line per perfbench workload and seed, then one per mode for the
    chains on mixed-length inputs."""
    tool = _tool("fingerprints")
    runs = []
    for _ in range(2):
        assert tool.main([str(_ROOT)], sizes=TINY) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split()[:2] for line in runs[0]] == [
        [name, f"seed{seed}"] for name in ("tune-sup", "tune-unsup", "score")
        for seed in (3, 4)] + [["mixed-sup", "seed1"], ["mixed-unsup", "seed1"]]
    assert len({line.split()[2] for line in runs[0]}) == len(runs[0])
    assert all(len(line.split()[2]) == 64 for line in runs[0])


def test_fingerprints_of_two_checkouts_compare_line_by_line(capsys):
    tool = _tool("fingerprints")
    assert tool.main([str(_ROOT), str(_ROOT)], sizes=TINY) == 0
    *lines, total = capsys.readouterr().out.splitlines()
    assert total == "8 of 8 identical"
    assert [line.split()[:2] for line in lines][-2:] == [["mixed-sup", "seed1"],
                                                         ["mixed-unsup", "seed1"]]
    assert all(len(line.split()) == 5 and line.split()[2] == line.split()[3]
               and line.endswith(" same") for line in lines)


# A stand-in for the fingerprint run: the checkout named ``change`` prints a
# different digest for ``b seed1`` and ``c seed1`` only; ``parent`` prints
# ``d seed1`` too, and each exits with the code in its own ``code.txt``.
_STUB_CHILD = """import pathlib, sys
checkout = pathlib.Path(sys.argv[1])
print("a seed1 0000")
print("b seed1 " + ("2222" if checkout.name == "change" else "1111"))
if checkout.name == "parent":
    print("d seed1 4444")
print("c seed1 " + checkout.name)
sys.exit(int((checkout / "code.txt").read_text()))
"""


def _stub_fingerprints(tmp_path, monkeypatch, codes):
    tool = _tool("fingerprints")
    monkeypatch.setattr(tool, "_CHILD", _STUB_CHILD)
    for name, code in zip(("parent", "change"), codes):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "workloads.py").write_text("")
        (tmp_path / name / "code.txt").write_text(str(code))
    return tool.main([str(tmp_path / "parent"), str(tmp_path / "change")])


def test_fingerprints_mark_each_differing_line_and_exit_1(tmp_path, monkeypatch, capsys):
    assert _stub_fingerprints(tmp_path, monkeypatch, (0, 0)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a seed1 0000 0000 same", "b seed1 1111 2222 DIFFERENT",
        "d seed1 4444 - DIFFERENT", "c seed1 parent change DIFFERENT",
        "1 of 4 identical"]


def test_fingerprints_exit_1_when_a_checkout_fails(tmp_path, monkeypatch, capsys):
    assert _stub_fingerprints(tmp_path, monkeypatch, (0, 3)) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 4 identical"
    assert _stub_fingerprints(tmp_path / "again", monkeypatch, (2, 0)) == 1


def test_fingerprints_refuse_a_third_checkout(capsys):
    assert _tool("fingerprints").main([str(_ROOT)] * 3) == 2
    assert "usage" in capsys.readouterr().err


# A stand-in for a checkout's perfbench/run.py: it logs its checkout and
# arguments to calls.txt beside the checkout, prints an env line, then the
# given last line, and exits with the given code.
_STUB_RUN = """import json, pathlib, sys
checkout = pathlib.Path.cwd()
with open(checkout.parent / "calls.txt", "a") as fh:
    fh.write(checkout.name + " " + " ".join(sys.argv[1:]) + "\\n")
print("env " + json.dumps({"checkout": checkout.name}))
print(%r)
sys.exit(%d)
"""

_METRICS = {"setup_s": 1.0, "round_s_p50": 2.0, "best_val_accuracy": 0.9,
            "peak_rss_mb": 100.0}


def _stub_checkout(root, name, last_line, code=0):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(_STUB_RUN % (last_line, code))
    return str(root / name)


def _result(**metrics):
    return json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
        k: {"value": v, "unit": "-"} for k, v in {**_METRICS, **metrics}.items()}})


def _bench_pairs(tmp_path, monkeypatch, change_line, change_code=0):
    """Run the tool on a stub parent printing ``_METRICS`` and a stub change;
    return its exit code, the stubs' calls and each workload's document."""
    monkeypatch.chdir(tmp_path)
    parent = _stub_checkout(tmp_path, "parent", _result())
    change = _stub_checkout(tmp_path, "change", change_line, change_code)
    code = _tool("bench_pairs").main([parent, change])
    workloads = [w["name"] for w in json.loads((_ROOT / "BENCHMARK.json").read_text())
                 ["workloads"]]
    docs = {w: json.loads((tmp_path / f"BENCH_{w}.json").read_text()) for w in workloads}
    return code, (tmp_path / "calls.txt").read_text().splitlines(), docs


def test_bench_pairs_alternates_sides_and_gives_a_verdict_per_metric(tmp_path,
                                                                      monkeypatch):
    """The change halves round_s_p50 (better), halves best_val_accuracy
    (worse than its 0.25 bound) and leaves the rest (unchanged)."""
    code, calls, docs = _bench_pairs(
        tmp_path, monkeypatch, _result(round_s_p50=1.0, best_val_accuracy=0.45))
    assert code == 0
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text())
    for i, (workload, doc) in enumerate(docs.items()):
        args = (f"--workload {workload} --seed 1 --seconds {bench['run_seconds']} "
                "--trace 0")
        sides = ["parent", "change", "change", "parent"] * 5
        assert calls[20 * i:20 * (i + 1)] == [f"{side} {args}" for side in sides]
        assert [(run["pair"], run["side"]) for run in doc["runs"]] == [
            (1 + k // 2, side) for k, side in enumerate(sides)]
        assert all(run["env"] == {"checkout": run["side"]} and not run["failed"]
                   for run in doc["runs"])
        metrics = doc["metrics"]
        assert {k: m["verdict"] for k, m in metrics.items()} == {
            "setup_s": "unchanged", "round_s_p50": "better",
            "best_val_accuracy": "worse", "peak_rss_mb": "unchanged"}
        assert metrics["round_s_p50"]["pairs_won"] == list(range(1, 11))
        assert metrics["setup_s"]["pairs_won"] == []
        assert metrics["round_s_p50"]["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0,
                                                     "spread": 0.0}


def test_chain_profile_prints_a_share_pair_per_quarter_and_restores_the_model():
    args = ["--mode", "supervised", "--steps", "8", "--examples", "40", "--task", "agnews"]
    run = subprocess.run([sys.executable, str(_ROOT / "tools" / "chain_profile.py"), *args],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    quarters = [line.split() for line in run.stdout.splitlines()
                if line.startswith("quarter ")]
    assert [q[:4] for q in quarters] == [["quarter", "1", "steps", "0-1"],
                                         ["quarter", "2", "steps", "2-3"],
                                         ["quarter", "3", "steps", "4-5"],
                                         ["quarter", "4", "steps", "6-7"]]
    assert all(q[4] == "same" and q[6] == "held" and 0 <= float(q[5]) <= 1
               and 0 <= float(q[7]) <= 1 and q[8] == "ms" and float(q[9]) > 0
               for q in quarters)
    assert "ms/step" in run.stdout and "agnews, 40 examples" in run.stdout

    from promptsearch import sampler
    from promptsearch.model import TinyCausalLM
    forward, energy_and_grad = TinyCausalLM.forward, sampler.energy_and_grad
    assert _tool("chain_profile").main(args) == 0
    assert TinyCausalLM.forward is forward and sampler.energy_and_grad is energy_and_grad


def test_chain_profile_refuses_an_unknown_flag_and_a_bad_config():
    for args in (["--frobnicate", "4"], ["--seed", "4"], ["--steps", "3"], ["--eta", "0"],
                 ["--examples", "0"], ["--task", "sst2"]):
        run = subprocess.run([sys.executable, str(_ROOT / "tools" / "chain_profile.py"),
                              *args], capture_output=True, text=True)
        assert run.returncode == 2, args
        assert run.stderr.splitlines()[-1].startswith("chain_profile.py: error:"), args


def test_bench_pairs_records_failed_runs_and_exits_1(tmp_path, monkeypatch):
    code, calls, docs = _bench_pairs(tmp_path, monkeypatch, "no result", change_code=3)
    assert code == 1 and len(calls) == 60
    for doc in docs.values():
        failed = [run for run in doc["runs"] if run["failed"]]
        assert [run["side"] for run in failed] == ["change"] * 10
        assert all(run["exit_code"] == 3 and run["metrics"] == {} for run in failed)
        assert all(m["verdict"] == "unresolved" and "change" not in m
                   for m in doc["metrics"].values())


def test_bench_pairs_prints_both_medians_and_the_relative_change(tmp_path, monkeypatch,
                                                                 capsys):
    _bench_pairs(tmp_path, monkeypatch, _result(round_s_p50=1.5, best_val_accuracy=0.45))
    lines = capsys.readouterr().out.splitlines()
    assert "tune-sup round_s_p50: better, change won 10 of 10 pairs; median 2 -> 1.5 " \
           "(-25.0%)" in lines
    assert "score best_val_accuracy: worse, change won 0 of 10 pairs; median 0.9 -> " \
           "0.45 (-50.0%)" in lines
    assert "tune-unsup setup_s: unchanged, change won 0 of 10 pairs; median 1 -> 1 " \
           "(+0.0%)" in lines


def test_bench_pairs_prints_no_medians_when_a_side_has_no_runs(tmp_path, monkeypatch,
                                                              capsys):
    _bench_pairs(tmp_path, monkeypatch, "no result", change_code=3)
    lines = capsys.readouterr().out.splitlines()
    assert "tune-sup round_s_p50: unresolved, change won 0 of 10 pairs" in lines
    assert not any("median" in line for line in lines)
