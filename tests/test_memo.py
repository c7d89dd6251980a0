"""The chain memo: a supervised chain scores each example once per prompt.

A batch member already scored under the unchanged prompt reads its label
row and its key/value gradients from the chain's memo; a step's stacks run
only the members the memo lacks and store them.  These tests hold the memo
to the bits of memo-free evaluation, and check where it must stay off.
"""

import functools
import gc
import json
import weakref

import numpy as np
import pytest

from conftest import CountingModel
from promptsearch import energies, sampler
from promptsearch.cli import main
from promptsearch.energies import (
    EnergyConfig,
    _ChainMemo,
    _rendered,
    domain_nll,
    energy_and_grad,
    entropy_loss,
    supervised_energy,
)
from promptsearch.model import SoftPrompt, TinyCausalLM, prompt_from_ids
from promptsearch.sampler import NoiseSchedule, SamplerConfig, run_chain
from promptsearch.synthetic import POOL_A, POOL_B, synthetic_dataset
from promptsearch.tasks import Example


def _bits_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _config(steps, batch, seed, energy=None, m=4):
    return SamplerConfig(eta=0.3, schedule=NoiseSchedule(1.0, 1e-4, steps), steps=steps,
                         batch_size=batch, seed=seed,
                         energy=energy or EnergyConfig.supervised(0.003), prompt_length=m)


def _mixed_data(n, seed):
    """Labelled examples of 0 to 5 words, so batches span several lengths."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        pool, label = (POOL_A, "good") if i % 2 == 0 else (POOL_B, "bad")
        words = rng.choice(pool, size=int(rng.integers(0, 6)), replace=True)
        out.append(Example(" ".join(words), label))
    return out


def _traced_chain(monkeypatch, task, model, cfg, data):
    """Run a chain, recording per step its prompt, batch, energy, gradient
    and the ``TinyCausalLM.forward`` calls its evaluation made."""
    steps, forwards = [], [0]
    original_forward = TinyCausalLM.forward

    @functools.wraps(original_forward)
    def counted(*args, **kwargs):
        forwards[0] += 1
        return original_forward(*args, **kwargs)

    def traced(prompt, batch, task_, model_, energy):
        before = forwards[0]
        breakdown, grad = energy_and_grad(prompt, batch, task_, model_, energy)
        steps.append((prompt, list(batch), breakdown, grad, forwards[0] - before))
        return breakdown, grad

    monkeypatch.setattr(TinyCausalLM, "forward", counted)
    monkeypatch.setattr(sampler, "energy_and_grad", traced)
    record = run_chain(task, model, cfg, data)
    monkeypatch.undo()
    return record, steps


def _memo_free(monkeypatch, task, model, cfg, data):
    with monkeypatch.context() as patch:
        patch.setattr(energies, "_chain_memo", lambda *args: None)
        return run_chain(task, model, cfg, data)


# -- exactness ------------------------------------------------------------------

def test_supervised_chain_matches_a_memo_free_replay_bit_for_bit(monkeypatch, model,
                                                                  task):
    """Six-word inputs: every batch is one length group, so energies and
    gradients are bitwise those of plain examples scored without a memo."""
    data = synthetic_dataset(12, seed=3)
    cfg = _config(steps=60, batch=4, seed=1)
    record, steps = _traced_chain(monkeypatch, task, model, cfg, data)
    assert len(record.per_step) == 60 and record.fault is None
    hits = [i for i, step in enumerate(steps) if step[4] == 0]
    assert len(hits) >= 5, "no step was served from the memo"
    for prompt, batch, breakdown, grad, _ in steps:
        plain = [Example(ex.text, ex.label) for ex in batch]
        want, want_grad = energy_and_grad(prompt, plain, task, model, cfg.energy)
        assert breakdown == want
        _bits_equal(grad, want_grad)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_length_chain_keeps_energies_and_records(monkeypatch, model, task, seed):
    """Several length groups per batch: a held member's gradient may come
    from a stack of another size, yet energies and gradients are bitwise
    those of memo-free evaluation, and so is the record."""
    data = _mixed_data(12, seed)
    cfg = _config(steps=40, batch=5, seed=seed)
    record, steps = _traced_chain(monkeypatch, task, model, cfg, data)
    assert any(step[4] == 0 for step in steps)
    for prompt, batch, breakdown, grad, _ in steps:
        plain = [Example(ex.text, ex.label) for ex in batch]
        want, want_grad = energy_and_grad(prompt, plain, task, model, cfg.energy)
        assert breakdown == want
        _bits_equal(grad, want_grad)
    assert record.to_dict() == _memo_free(monkeypatch, task, model, cfg, data).to_dict()


def test_memo_changes_no_six_word_record_and_full_pass_adapters_run_every_example(
        monkeypatch, model, task):
    """The memo-free chain the other tests compare against writes the same
    record; an adapter that does not extend passes gets no memo and runs one
    forward and one backward per example and step."""
    data = synthetic_dataset(12, seed=3)
    cfg = _config(steps=20, batch=4, seed=1)
    counting = CountingModel(model)
    with monkeypatch.context() as patch:
        patch.setattr(energies, "_chain_memo", lambda *args: None)
        with_memo_off = run_chain(task, model, cfg, data)
    assert with_memo_off.to_dict() == run_chain(task, model, cfg, data).to_dict()
    run_chain(task, counting, cfg, data)  # an adapter that does not extend passes
    assert counting.forwards == 20 * 4 and counting.backwards == 20 * 4


# -- what empties the memo -------------------------------------------------------

def _evaluate(prompt, items, task, model, energy=None):
    return energy_and_grad(prompt, items, task, model, energy or EnergyConfig.supervised())


def test_a_changed_prompt_weight_or_batch_size_empties_the_memo(model, task):
    memo = _ChainMemo()
    items = _rendered(synthetic_dataset(8, seed=4), task, model, memo)
    prompt = prompt_from_ids([5, 6, 7], model)
    _evaluate(prompt, items[:4], task, model)
    assert sorted(memo.entries) == [0, 1, 2, 3] and memo.head is not None
    _evaluate(prompt, items[4:], task, model)  # same key: the memo grows
    assert sorted(memo.entries) == list(range(8))
    head = memo.head
    _evaluate(prompt, items[2:6], task, model)  # all held: nothing new
    assert sorted(memo.entries) == list(range(8)) and memo.head is head

    _evaluate(prompt_from_ids([5, 6, 8], model), items[:4], task, model)
    assert sorted(memo.entries) == [0, 1, 2, 3] and memo.head is not head
    _evaluate(prompt_from_ids([5, 6, 8], model), items[4:], task, model,
              EnergyConfig.supervised(0.1))
    assert sorted(memo.entries) == [4, 5, 6, 7]
    _evaluate(prompt_from_ids([5, 6, 8], model), items[:3], task, model,
              EnergyConfig.supervised(0.1))
    assert sorted(memo.entries) == [0, 1, 2]


def test_held_batch_runs_no_stack_and_gives_the_same_bits(model, task):
    memo = _ChainMemo()
    items = _rendered(synthetic_dataset(8, seed=4), task, model, memo)
    prompt = prompt_from_ids([9, 10, 11, 12], model)
    _evaluate(prompt, items[:4], task, model)
    _evaluate(prompt, items[4:], task, model)
    counting = {"forward": 0, "backward_input": 0}
    batch = [items[6], items[1], items[4], items[3]]
    served, served_grad = _counted(counting, lambda: _evaluate(prompt, batch, task, model))
    assert counting == {"forward": 0, "backward_input": 1}
    plain = [Example(ex.text, ex.label) for ex in batch]
    want, want_grad = _evaluate(prompt, plain, task, model)
    assert served == want
    _bits_equal(served_grad, want_grad)


def test_partly_held_batch_stacks_only_the_missed_members(monkeypatch, model, task):
    """Mixed lengths: the stacks run the members the memo lacks, and no
    other, and the step keeps the bits of memo-free evaluation."""
    memo = _ChainMemo()
    items = _rendered(_mixed_data(10, seed=4), task, model, memo)
    prompt = prompt_from_ids([9, 10, 11], model)
    _evaluate(prompt, items[:5], task, model)
    batch = [items[7], items[1], items[5], items[3], items[9]]
    stacked = []
    original = TinyCausalLM.forward

    def forward(self, X, past=None, **kwargs):
        if np.ndim(X) == 3:
            stacked.extend(X)
        return original(self, X, past=past, **kwargs)

    monkeypatch.setattr(TinyCausalLM, "forward", forward)
    served, served_grad = _evaluate(prompt, batch, task, model)
    monkeypatch.undo()
    table = model.embedding_table().entries
    missed = sorted(table[list(ex.ids)].tobytes() for ex in (items[7], items[5], items[9]))
    assert sorted(x.tobytes() for x in stacked) == missed
    assert sorted(memo.entries) == [0, 1, 2, 3, 4, 5, 7, 9]
    want, want_grad = _evaluate(prompt, [Example(ex.text, ex.label) for ex in batch],
                                task, model)
    assert served == want
    _bits_equal(served_grad, want_grad)



def test_memo_entries_are_contiguous_copies(model, task):
    """Each held key/value gradient owns its data, so no entry keeps the
    array of its whole stack alive."""
    memo = _ChainMemo()
    items = _rendered(_mixed_data(8, seed=2), task, model, memo)
    _evaluate(prompt_from_ids([5, 6, 7], model), items, task, model)
    assert memo.entries
    H = model.n_heads
    for logits, d_kv in memo.entries.values():
        assert d_kv.shape == (model.n_layers, 2, H, 3, model.dim // H)
        assert d_kv.flags.c_contiguous and d_kv.base is None
        assert logits.base is None

def _counted(counts, run):
    originals = {name: getattr(TinyCausalLM, name) for name in counts}

    def wrap(name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return counted

    try:
        for name in counts:
            setattr(TinyCausalLM, name, wrap(name))
        return run()
    finally:
        for name, original in originals.items():
            setattr(TinyCausalLM, name, original)


# -- where the memo stays off ------------------------------------------------------

def test_memo_is_off_for_unsupervised_energies(model, task):
    """The entropy term's per-example gradient depends on the batch mean."""
    memo = _ChainMemo()
    items = _rendered(synthetic_dataset(4, seed=4), task, model, memo)
    prompt = prompt_from_ids([5, 6, 7], model)
    _evaluate(prompt, items, task, model, EnergyConfig.unsupervised(0.003))
    entropy_loss(prompt, items, task, model, grad=True)
    domain_nll(prompt, items, task, model, grad=True)
    assert memo.key is None and memo.head is None and memo.entries == {}


def test_memo_is_off_for_adapters_that_do_not_extend_passes(model, task):
    memo = _ChainMemo()
    items = _rendered(synthetic_dataset(4, seed=4), task, model, memo)
    counting = CountingModel(model)
    for _ in range(2):
        _evaluate(prompt_from_ids([5, 6, 7], model), items, task, counting)
    assert counting.forwards == 8 and counting.backwards == 8
    assert memo.key is None and memo.entries == {}


def test_memo_is_off_for_unprojected_prompts_and_value_only_calls(model, task):
    memo = _ChainMemo()
    items = _rendered(synthetic_dataset(4, seed=4), task, model, memo)
    soft = SoftPrompt(np.random.default_rng(0).normal(size=(3, model.dim)))
    _evaluate(soft, items, task, model)
    supervised_energy(prompt_from_ids([5, 6, 7], model), items, task, model,
                      EnergyConfig.supervised())
    assert memo.key is None and memo.entries == {}


def test_memo_holds_at_most_its_bound(monkeypatch, model, task):
    monkeypatch.setattr(energies, "_MEMO_EXAMPLES", 3)
    memo = _ChainMemo()
    items = _rendered(synthetic_dataset(8, seed=4), task, model, memo)
    prompt = prompt_from_ids([5, 6, 7], model)
    _evaluate(prompt, items[:4], task, model)
    _evaluate(prompt, items[4:], task, model)
    assert sorted(memo.entries) == [0, 1, 2]


# -- one memo per chain ---------------------------------------------------------------

def _chain_memos(monkeypatch, task, model, cfg, data):
    """Run a chain; return weak references to the memos its batches carried."""
    refs = []

    def traced(prompt, batch, task_, model_, energy):
        if not refs or refs[-1]() is not batch[0].memo:
            refs.append(weakref.ref(batch[0].memo))
        return energy_and_grad(prompt, batch, task_, model_, energy)

    with monkeypatch.context() as patch:
        patch.setattr(sampler, "energy_and_grad", traced)
        run_chain(task, model, cfg, data)
    return refs


def test_chain_memo_is_freed_when_the_chain_returns(monkeypatch, model, task):
    """No reference cycle keeps a memo alive: its weak reference is dead
    once ``run_chain`` returns, with the cycle collector off."""
    cfg = _config(steps=30, batch=4, seed=1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = _chain_memos(monkeypatch, task, model, cfg, synthetic_dataset(8, seed=3))
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_every_chain_gets_a_fresh_memo_even_from_rendered_items(monkeypatch, model,
                                                               task):
    given = _ChainMemo()
    items = _rendered(synthetic_dataset(8, seed=3), task, model, given)
    cfg = _config(steps=5, batch=4, seed=1)
    memos = []
    for _ in range(2):
        refs = _chain_memos(monkeypatch, task, model, cfg, items)
        assert len(refs) == 1
        memos.append(refs[0])
    assert given.entries == {}
    assert all(ref() is None for ref in memos)
    plain = run_chain(task, model, cfg, synthetic_dataset(8, seed=3))
    assert run_chain(task, model, cfg, items).to_dict() == plain.to_dict()


# -- the CLI -----------------------------------------------------------------------

def _dump(path, examples):
    path.write_text("".join(json.dumps({"text": ex.text, "label": ex.label}) + "\n"
                            for ex in examples), encoding="utf-8")


@pytest.mark.parametrize("mixed", [False, True], ids=["six-word", "mixed-length"])
def test_tune_with_two_jobs_writes_the_serial_records(tmp_path, mixed):
    train = tmp_path / "train.jsonl"
    _dump(train, _mixed_data(12, 5) if mixed else synthetic_dataset(12, seed=5))
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["tune", "--task", "synthetic-2label", "--model", "reference:1",
                     "--data", str(train), "--out-dir", str(out), "--steps", "40",
                     "--m", "3", "--batch-size", "4", "--eta", "0.3", "--seeds", "2",
                     "--jobs", jobs]) == 0
        runs[jobs] = {f.name: f.read_bytes() for f in sorted(out.glob("chain_*.json"))}
    assert len(runs["1"]) == 2 and runs["1"] == runs["2"]


def test_tune_renders_each_text_once(monkeypatch, tmp_path):
    from promptsearch import tasks

    calls = []
    original = tasks.render

    def counted(task, text, model):
        calls.append(text)
        return original(task, text, model)

    monkeypatch.setattr(tasks, "render", counted)
    monkeypatch.setattr(energies, "render", counted)
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    train_data, val_data = synthetic_dataset(10, seed=1), synthetic_dataset(6, seed=2)
    _dump(train, train_data)
    _dump(val, val_data)
    assert main(["tune", "--task", "synthetic-2label", "--model", "reference:1",
                 "--data", str(train), "--val-data", str(val),
                 "--out-dir", str(tmp_path / "out"), "--steps", "3", "--m", "3",
                 "--batch-size", "4", "--seeds", "2"]) == 0
    assert sorted(calls) == sorted(ex.text for ex in train_data + val_data)
