"""The benchmark's workloads: inputs, closed-loop rounds and output checks.

Every workload drives the real user path in-process: each round issues
``promptsearch.cli.main([...])`` invocations back to back, one client, with
``--jobs 1``.  All workloads use ``reference:22`` and ``synthetic-2label``.
Inputs are generated from the workload seed during set-up and written as
JSONL; the program only ever sees those files.

* ``tune-sup`` / ``tune-unsup``: one single-chain ``tune`` per round at the
  baseline config (B=16, M=10, 100 steps, adaptive, eta=0.3, beta 1 -> 1e-4,
  200 train and 200 val examples of six words), chain seed ``base + round``.
* ``score``: one ``eval`` of a prompt file plus the empty baseline on a
  labeled set of 2- to 30-word inputs, then one ``analyze --continuations``
  over chain records made in set-up.  Every round is the same request.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import promptsearch.cli
from promptsearch.model import REFERENCE_VOCAB
from promptsearch.synthetic import POOL_A, POOL_B, synthetic_dataset
from promptsearch.tasks import Example

MODEL = "reference:22"
TASK = "synthetic-2label"
# Ids of the reference model's special tokens, which the default
# ``--allowed-vocab no-special`` keeps out of every tuned prompt.
SPECIAL_IDS = frozenset(REFERENCE_VOCAB.index(t) for t in ("<pad>", "<unk>"))


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests pass tiny ones."""

    train: int = 200
    val: int = 200
    steps: int = 100
    batch: int = 16
    prompt_len: int = 10
    score_examples: int = 200
    score_min_words: int = 2
    score_max_words: int = 30
    setup_chains: int = 4
    setup_steps: int = 30
    continuations: int = 2
    continuation_length: int = 100


@dataclass
class Invocation:
    """One ``promptsearch.cli.main`` call and what it returned."""

    command: str
    seconds: float
    code: int | None  # None when the call raised
    stdout: str
    error: str = ""


@dataclass
class Round:
    """The invocations of one closed-loop round, in order."""

    index: int
    directory: Path
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(inv.seconds for inv in self.invocations)


def invoke(argv: list[str]) -> Invocation:
    """Run the CLI in-process, capturing its output; a raise is a failed call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = promptsearch.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the program crashed: a failed invocation, not a harness error
        code = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    if code not in (0, None):
        error = err.getvalue()
    return Invocation(argv[0], seconds, code, out.getvalue(), error)


def _write_jsonl(path: Path, examples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"text": ex.text, "label": ex.label}) + "\n")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _record_problems(path: Path, steps: int) -> list[str]:
    """Output checks on one chain record: fault-free, full length, allowed ids."""
    if not path.is_file():
        return [f"missing record {path.name}"]
    record = _read_json(path)
    problems = []
    if "fault" in record:
        problems.append(f"{path.name}: fault {record['fault']!r}")
    if len(record["steps"]) != steps:
        problems.append(f"{path.name}: {len(record['steps'])} steps, expected {steps}")
    bad = {i for s in record["steps"] for i in s["token_ids"]
           if i in SPECIAL_IDS or not 0 <= i < len(REFERENCE_VOCAB)}
    if bad:
        problems.append(f"{path.name}: token ids outside the allowed vocabulary {sorted(bad)}")
    acc = record["metrics"].get("accuracy")
    if acc is None or not 0.0 <= acc <= 1.0:
        problems.append(f"{path.name}: accuracy {acc!r} not in [0, 1]")
    return problems


class TuneWorkload:
    """Single-chain ``tune`` invocations, one chain seed per round."""

    def __init__(self, name: str, mode: str, seed: int, sizes: Sizes):
        self.name = name
        self.mode = mode
        self.sizes = sizes
        train_seed, val_seed, self.chain_base = (
            int(v) for v in np.random.default_rng(seed).integers(0, 2**31 - 1, size=3))
        self._data_seeds = (train_seed, val_seed)
        self.inputs: Path | None = None
        # Rounds that always run, however long they take.  best_val_accuracy
        # is taken over exactly these chains, so it repeats for a seed.
        self.min_rounds = 5 if mode == "supervised" else 3

    def prepare(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        train_seed, val_seed = self._data_seeds
        _write_jsonl(directory / "train.jsonl", synthetic_dataset(self.sizes.train, train_seed))
        _write_jsonl(directory / "val.jsonl", synthetic_dataset(self.sizes.val, val_seed))
        self.inputs = directory

    def _seed(self, index: int) -> int:
        return self.chain_base + index

    def run_round(self, index: int, directory: Path) -> Round:
        s = self.sizes
        argv = ["tune", "--task", TASK, "--model", MODEL,
                "--data", str(self.inputs / "train.jsonl"),
                "--val-data", str(self.inputs / "val.jsonl"),
                "--out-dir", str(directory), "--mode", self.mode,
                "--m", str(s.prompt_len), "--steps", str(s.steps),
                "--batch-size", str(s.batch), "--eta", "0.3",
                "--beta-start", "1.0", "--beta-end", "1e-4",
                "--optimizer", "adaptive", "--seeds", f"{self._seed(index)},",
                "--jobs", "1"]
        if self.mode == "supervised":
            argv += ["--lambda-fluency", "0.003"]
        else:
            argv += ["--lambda-domain", "0.003", "--energy-sign", "intent"]
        return Round(index, directory, [invoke(argv)])

    def _record(self, rnd: Round) -> Path:
        return rnd.directory / f"chain_000_seed{self._seed(rnd.index)}.json"

    def problems(self, rnd: Round) -> list[str]:
        return _record_problems(self._record(rnd), self.sizes.steps)

    def fingerprint(self, rnd: Round) -> bytes:
        """The round's deterministic output: the chain record's bytes."""
        path = self._record(rnd)
        return path.read_bytes() if path.is_file() else b""

    def accuracy(self, rnd: Round) -> float:
        return _read_json(self._record(rnd))["metrics"]["accuracy"]

    def work(self, rounds: list[Round]) -> dict[str, float]:
        seconds = sum(r.seconds for r in rounds)
        return {"steps_per_s": self.sizes.steps * len(rounds) / seconds}


def _mixed_length_examples(n: int, rng: np.random.Generator, lo: int, hi: int):
    """Label-balanced synthetic examples whose inputs have ``lo``..``hi`` words."""
    out = []
    for i in range(n):
        pool, label = (POOL_A, "good") if i % 2 == 0 else (POOL_B, "bad")
        words = rng.choice(pool, size=int(rng.integers(lo, hi + 1)), replace=True)
        out.append(Example(" ".join(words), label))
    return out


class ScoreWorkload:
    """``eval`` of a prompt file with the empty baseline, then ``analyze``."""

    name = "score"
    min_rounds = 3  # every round is the same request

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.seed = seed
        self.inputs: Path | None = None
        self.prompts: list[str] = []
        self.distinct_tuned = 0
        self.continuation_seed = 0

    def prepare(self, directory: Path) -> None:
        s = self.sizes
        directory.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        train_seed = int(rng.integers(0, 2**31 - 1))
        _write_jsonl(directory / "train.jsonl", synthetic_dataset(s.train, train_seed))
        _write_jsonl(directory / "labeled.jsonl", _mixed_length_examples(
            s.score_examples, rng, s.score_min_words, s.score_max_words))
        chain_seeds = ",".join(str(int(v)) for v in rng.integers(0, 2**31 - 1, size=s.setup_chains))
        chains = directory / "chains"
        made = invoke(["tune", "--task", TASK, "--model", MODEL,
                       "--data", str(directory / "train.jsonl"),
                       "--val-data", str(directory / "labeled.jsonl"),
                       "--out-dir", str(chains), "--m", str(s.prompt_len),
                       "--steps", str(s.setup_steps), "--batch-size", str(s.batch),
                       "--eta", "0.3", "--seeds", chain_seeds + ",", "--jobs", "1"])
        if made.code != 0:
            raise RuntimeError(f"set-up tune failed with exit {made.code}: {made.error}")
        records = [_read_json(p) for p in sorted(chains.glob("chain_*.json"))]
        self.prompts = [r["final_prompt_text"] for r in records]
        self.distinct_tuned = len(set(self.prompts))
        (directory / "prompts.txt").write_text("\n".join(self.prompts) + "\n", encoding="utf-8")
        self.continuation_seed = int(rng.integers(0, 2**31 - 1))
        self.inputs = directory

    def run_round(self, index: int, directory: Path) -> Round:
        s = self.sizes
        directory.mkdir(parents=True)
        common = ["--task", TASK, "--model", MODEL]
        evaluate = invoke(["eval", *common, "--prompts", str(self.inputs / "prompts.txt"),
                           "--data", str(self.inputs / "labeled.jsonl"), "--include-empty"])
        analyze = invoke(["analyze", *common, "--chains", str(self.inputs / "chains"),
                          "--report", str(directory / "report.json"),
                          "--continuations", str(s.continuations),
                          "--continuation-length", str(s.continuation_length),
                          "--continuation-seed", str(self.continuation_seed)])
        return Round(index, directory, [evaluate, analyze])

    def _eval_accuracies(self, rnd: Round) -> list[float]:
        """The accuracy column of ``eval``'s table (the third field from the right)."""
        lines = rnd.invocations[0].stdout.splitlines()[1:]
        rows = [ln for ln in lines if not ln.startswith("dist1 over")]
        return [float(ln.split()[-3]) for ln in rows]

    def problems(self, rnd: Round) -> list[str]:
        problems = []
        accs = self._eval_accuracies(rnd)
        if len(accs) != len(self.prompts) + 1:
            problems.append(f"eval printed {len(accs)} rows, expected {len(self.prompts) + 1}")
        if any(not 0.0 <= a <= 1.0 for a in accs):
            problems.append(f"eval accuracy outside [0, 1]: {accs}")
        report = rnd.directory / "report.json"
        if not report.is_file():
            return problems + ["analyze wrote no report"]
        rows = _read_json(report)["prompts"]
        if len(rows) != self.distinct_tuned:
            problems.append(f"report has {len(rows)} rows, expected {self.distinct_tuned}")
        if any(not 0.0 <= r["accuracy"] <= 1.0 for r in rows):
            problems.append("report accuracy outside [0, 1]")
        return problems

    def fingerprint(self, rnd: Round) -> bytes:
        """The round's deterministic output: eval's table and the report's bytes."""
        report = rnd.directory / "report.json"
        return (rnd.invocations[0].stdout.encode()
                + (report.read_bytes() if report.is_file() else b""))

    def accuracy(self, rnd: Round) -> float:
        """The best accuracy among the prompts ``eval`` scored."""
        return max(self._eval_accuracies(rnd))

    def work(self, rounds: list[Round]) -> dict[str, float]:
        s = self.sizes
        eval_s = [r.invocations[0].seconds for r in rounds]
        analyze_s = [r.invocations[1].seconds for r in rounds]
        scorings = (len(self.prompts) + 1) * s.score_examples
        tokens = self.distinct_tuned * s.continuations * s.continuation_length
        return {"eval_examples_per_s": scorings * len(rounds) / sum(eval_s),
                "gen_tokens_per_s": tokens * len(rounds) / sum(analyze_s)}


def make_workload(name: str, seed: int, sizes: Sizes | None = None):
    sizes = sizes or Sizes()
    if name == "tune-sup":
        return TuneWorkload(name, "supervised", seed, sizes)
    if name == "tune-unsup":
        return TuneWorkload(name, "unsupervised", seed, sizes)
    if name == "score":
        return ScoreWorkload(seed, sizes)
    raise ValueError(f"unknown workload {name!r}")
