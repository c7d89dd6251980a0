"""The chain memo: a chain scores each example once per prompt, in both modes.

A batch member already scored under the unchanged prompt reads its label
logits, its token terms and its key/value gradients per right-hand side from
the chain's memo; a step's stacks run only the members the memo lacks and store
them.  These tests hold the memo to the bits of memo-free evaluation,
supervised and unsupervised, and check where it must stay off.
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
    _prefix_readout,
    _rendered,
    energy_and_grad,
    supervised_energy,
)
from promptsearch.model import SoftPrompt, TinyCausalLM, prompt_from_ids
from promptsearch.sampler import NoiseSchedule, SamplerConfig, run_chain
from promptsearch.synthetic import POOL_A, POOL_B, synthetic_dataset
from promptsearch.tasks import Example, TaskSpec

UNSUPERVISED = [EnergyConfig.unsupervised(0.003),
                EnergyConfig.unsupervised(0.003, sign="literal")]
# no cue after the input, so an input of no words renders an empty body
BARE = TaskSpec(id="bare", template="{x}", verbalizer={"good": "good", "bad": "bad"},
                domain_string="this is a review")
# three labels, so two label directions per example
THREE_LABELS = TaskSpec(id="three", template="{x} it was",
                        verbalizer={"good": "good", "bad": "bad", "so-so": "music"},
                        domain_string="this is a review")


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
    """The chain run with a memo that holds nothing: every step is scored
    afresh, by the rules of the chain's memo."""
    chain_memo = energies._chain_memo

    def nothing_held(*args):
        memo = chain_memo(*args)
        if memo is not None:
            memo.head = memo.prefix = None
            memo.entries, memo.floats = {}, 0
        return memo

    with monkeypatch.context() as patch:
        patch.setattr(energies, "_chain_memo", nothing_held)
        return run_chain(task, model, cfg, data)


def _afresh(prompt, batch, task, model, energy, examples, repeat=True):
    """``batch`` scored afresh by the rules of a chain's memo for
    ``examples`` examples, under a memo that holds nothing; with
    ``repeat``, as a prompt's later step, after a step under the same key."""
    memo = _ChainMemo()
    items = _rendered([Example(ex.text, ex.label) for ex in batch], task, model, memo)
    memo.examples = examples
    if repeat:
        energy_and_grad(prompt, items, task, model, energy)
        memo.head = memo.prefix = None
        memo.entries, memo.floats = {}, 0
    return energy_and_grad(prompt, items, task, model, energy)


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


def _assert_memo_free_bits(monkeypatch, task, model, cfg, data):
    """Every step of the chain has the energies and gradient of the same
    step scored afresh (as a prompt's first or later step), bit for bit, at
    least 5 steps ran no forward, and the record is that of a chain whose
    memo holds nothing.  Plain evaluation, without a memo, gives the same
    energies and a gradient within rounding."""
    record, steps = _traced_chain(monkeypatch, task, model, cfg, data)
    assert len(record.per_step) == cfg.steps and record.fault is None
    assert sum(step[4] == 0 for step in steps) >= 5, "too few steps served from the memo"
    before = None
    for prompt, batch, breakdown, grad, _ in steps:
        want, want_grad = _afresh(prompt, batch, task, model, cfg.energy, len(data),
                                  repeat=prompt.token_ids == before)
        before = prompt.token_ids
        assert breakdown == want
        _bits_equal(grad, want_grad)
        plain = [Example(ex.text, ex.label) for ex in batch]
        plain_value, plain_grad = energy_and_grad(prompt, plain, task, model, cfg.energy)
        assert plain_value == breakdown
        np.testing.assert_allclose(grad, plain_grad, rtol=1e-12,
                                   atol=1e-14 * np.abs(plain_grad).max())
    assert record.to_dict() == _memo_free(monkeypatch, task, model, cfg, data).to_dict()


@pytest.mark.parametrize("energy", UNSUPERVISED, ids=lambda e: e.sign)
@pytest.mark.parametrize("mixed", [False, True], ids=["six-word", "mixed-length"])
def test_unsupervised_chain_matches_memo_free_evaluation_bit_for_bit(monkeypatch, model,
                                                                     task, mixed, energy):
    """The entropy coefficients depend on the whole batch, yet a held member
    gives the bits of a fresh one: each gradient combines the same
    per-example key/value gradients with the step's coefficients.  The
    mixed-length data has inputs of 0 to 5 words under a template without a
    cue, so some bodies are empty."""
    if mixed:
        task, data = BARE, _mixed_data(12, seed=2)
        assert any(not ex.text for ex in data)
    else:
        data = synthetic_dataset(12, seed=3)
    _assert_memo_free_bits(monkeypatch, task, model,
                           _config(steps=60, batch=4, seed=1, energy=energy), data)


@pytest.mark.parametrize("energy", [EnergyConfig.supervised(0.003), UNSUPERVISED[0]],
                         ids=["supervised", "unsupervised"])
def test_three_label_chain_matches_memo_free_evaluation_bit_for_bit(monkeypatch, model,
                                                                    energy):
    """Three labels give each example two label directions."""
    _assert_memo_free_bits(monkeypatch, THREE_LABELS, model,
                           _config(steps=60, batch=4, seed=1, energy=energy),
                           synthetic_dataset(12, seed=3))


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


def test_held_unsupervised_batch_runs_no_forward_and_no_prompt_readout(monkeypatch,
                                                                      model, task):
    """All held: one backward, over the prompt's pass, and neither a forward
    nor a fluency readout over the prompt."""
    memo = _ChainMemo()
    items = _rendered(synthetic_dataset(8, seed=4), task, model, memo)
    prompt = prompt_from_ids([9, 10, 11, 12], model)
    energy = UNSUPERVISED[0]
    _evaluate(prompt, items[4:], task, model, energy)  # a prompt's first step: no memo
    _evaluate(prompt, items[:4], task, model, energy)
    _evaluate(prompt, items[4:], task, model, energy)
    readouts = []
    monkeypatch.setattr(energies, "_prefix_readout",
                        lambda *args: readouts.append(args) or _prefix_readout(*args))
    counting = {"forward": 0, "backward_input": 0}
    batch = [items[6], items[1], items[4], items[3]]
    served, served_grad = _counted(counting, lambda: _evaluate(prompt, batch, task, model,
                                                               energy))
    assert counting == {"forward": 0, "backward_input": 1} and readouts == []
    monkeypatch.undo()
    want, want_grad = _afresh(prompt, batch, task, model, energy, len(items))
    assert served == want
    _bits_equal(served_grad, want_grad)


@pytest.mark.parametrize("energy", [None, UNSUPERVISED[0]], ids=["supervised", "unsupervised"])
def test_partly_held_batch_stacks_only_the_missed_members(monkeypatch, model, task, energy):
    """Mixed lengths: the stacks run the members the memo lacks, and no
    other, and the step keeps the bits of memo-free evaluation."""
    memo = _ChainMemo()
    items = _rendered(_mixed_data(10, seed=4), task, model, memo)
    prompt = prompt_from_ids([9, 10, 11], model)
    if energy is not None:  # a prompt's first unsupervised step holds nothing
        _evaluate(prompt, items[5:], task, model, energy)
    _evaluate(prompt, items[:5], task, model, energy)
    batch = [items[7], items[1], items[5], items[3], items[9]]
    stacked = []
    original = TinyCausalLM.forward

    def forward(self, X, past=None, **kwargs):
        if np.ndim(X) == 3:
            stacked.extend(X)
        return original(self, X, past=past, **kwargs)

    monkeypatch.setattr(TinyCausalLM, "forward", forward)
    served, served_grad = _evaluate(prompt, batch, task, model, energy)
    monkeypatch.undo()
    table = model.embedding_table().entries
    missed = sorted(table[list(ex.ids)].tobytes() for ex in (items[7], items[5], items[9]))
    assert sorted(x.tobytes() for x in stacked) == missed
    assert sorted(memo.entries) == [0, 1, 2, 3, 4, 5, 7, 9]
    want, want_grad = _afresh(prompt, batch, task, model, energy or EnergyConfig.supervised(),
                              len(items))
    assert served == want
    _bits_equal(served_grad, want_grad)



@pytest.mark.parametrize("labels", [2, 3])
@pytest.mark.parametrize("energy", [None, UNSUPERVISED[0]], ids=["supervised", "unsupervised"])
def test_memo_entries_are_contiguous_copies(model, task, energy, labels):
    """Each held array owns its data, so no entry keeps the array of its
    whole stack alive.  The key/value gradients hold one array per
    right-hand side: the example's own (its task and domain terms, whose
    coefficients depend on it alone) and, with the entropy term, one per
    label direction."""
    task = task if labels == 2 else THREE_LABELS
    memo = _ChainMemo()
    items = _rendered(_mixed_data(8, seed=2), task, model, memo)
    for _ in range(2):  # a prompt's first unsupervised step holds nothing
        _evaluate(prompt_from_ids([5, 6, 7], model), items, task, model, energy)
    assert len(memo.entries) == 8
    H, sides = model.n_heads, 1 if energy is None else labels
    for ex in items:
        logits, terms, d_first, d_kv = memo.entries[ex.slot]
        assert logits.shape == (labels,) and d_first.shape == (model.dim,)
        assert terms.shape == ((0,) if energy is None else (len(ex.ids),))
        assert d_kv.shape == (sides, model.n_layers, 2, H, 3, model.dim // H)
        for held in (logits, terms, d_first, d_kv):
            assert held.flags.c_contiguous and held.base is None


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
    """The bound counts floats; an example a batch holds twice is counted
    once."""
    items = _rendered(synthetic_dataset(8, seed=4), task, model, _ChainMemo())
    prompt = prompt_from_ids([5, 6, 7], model)
    _evaluate(prompt, items[:4] + items[:1], task, model)
    memo = items[0].memo
    assert sorted(memo.entries) == [0, 1, 2, 3]
    assert memo.floats == sum(a.size for entry in memo.entries.values() for a in entry)
    per_entry = memo.floats // 4  # six-word inputs: every entry holds as many floats
    monkeypatch.setattr(energies, "_MEMO_FLOATS", 3 * per_entry + per_entry // 2)
    items = _rendered(items, task, model, _ChainMemo())
    _evaluate(prompt, items[:4], task, model)
    _evaluate(prompt, items[4:], task, model)
    assert sorted(items[0].memo.entries) == [0, 1, 2]
    assert items[0].memo.floats == 3 * per_entry


@pytest.mark.parametrize("labels", [2, 3])
def test_unsupervised_memo_serves_from_a_prompts_second_step_in_chains_it_holds_whole(
        monkeypatch, model, task, labels):
    """With ``entropy`` an entry holds |Y| key/value gradients, which pay
    only when the example comes back under the same prompt.  So the memo
    serves only a chain whose every example it can hold, and only from a
    prompt's second step on; otherwise each stack takes one right-hand side,
    with the bits of evaluation without a memo, and nothing is stored."""
    task = task if labels == 2 else THREE_LABELS
    energy = UNSUPERVISED[0]
    prompt = prompt_from_ids([5, 6, 7], model)
    # per example: |Y| times two layers' keys and values over the prompt
    kv = labels * 2 * model.n_layers * 3 * model.dim
    sides = []
    backward_input = TinyCausalLM.backward_input

    def counted(self, cache, d_hidden, **kwargs):
        if cache["start"]:  # a stack: its right-hand sides lead
            sides.append(len(d_hidden))
        return backward_input(self, cache, d_hidden, **kwargs)

    monkeypatch.setattr(TinyCausalLM, "backward_input", counted)
    for bound, served in ((8 * kv, True), (8 * kv - 1, False)):
        monkeypatch.setattr(energies, "_MEMO_FLOATS", bound)
        items = _rendered(synthetic_dataset(8, seed=4), task, model, _ChainMemo())
        memo = items[0].memo
        plain = [Example(ex.text, ex.label) for ex in items[:4]]
        want, want_grad = _evaluate(prompt, plain, task, model, energy)
        for step in range(2):
            sides.clear()
            got, got_grad = _evaluate(prompt, items[:4], task, model, energy)
            assert sides == [labels if served and step else 1]
            assert got == want
            if not (served and step):
                _bits_equal(got_grad, want_grad)
            assert sorted(memo.entries) == ([0, 1, 2, 3] if served and step else [])


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
