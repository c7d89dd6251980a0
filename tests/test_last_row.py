"""Last-row passes: ``forward(..., last_only=True)`` and the readers that use it."""

import functools

import numpy as np
import pytest
from scipy.special import logsumexp

from oracles import fd_grad, max_rel_err
from promptsearch import energies
from promptsearch.analysis import LocalContinuationGenerator
from promptsearch.energies import EnergyConfig, energy_and_grad
from promptsearch.errors import ConfigurationError
from promptsearch.model import (
    SoftPrompt,
    TinyCausalLM,
    _label_probs,
    _logsumexp,
    as_soft_prompt,
)
from promptsearch.sampler import NoiseSchedule, SamplerConfig, run_chain
from promptsearch.synthetic import synthetic_dataset
from promptsearch.tasks import Example, TaskSpec


def _bits_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [0, 1, 5])
@pytest.mark.parametrize("stack, n", [(1, 1), (1, 6), (4, 1), (4, 7), (17, 3)])
def test_last_only_pass_equals_last_rows_of_full_and_stacked_passes(model, m, stack, n):
    rng = np.random.default_rng(100 * m + 10 * stack + n)
    prompt = rng.normal(size=(m, model.dim))
    bodies = rng.normal(size=(stack, n, model.dim))
    past = model.forward(prompt).cache if m else None
    full = model.forward(bodies, past=past)
    last = model.forward(bodies, past=past, last_only=True)
    assert last.hidden.shape == (stack, 1, model.dim)
    assert last.logits.shape == (stack, 1, model.vocab_size)
    _bits_equal(last.hidden, full.hidden[:, -1:])
    _bits_equal(last.logits, full.logits[:, -1:])
    for g in range(stack):
        one = model.forward(np.concatenate([prompt, bodies[g]]))
        _bits_equal(last.hidden[g], one.hidden[-1:])
        _bits_equal(last.logits[g], one.logits[-1:])
        # a 2-D pass from position 0 is exact too
        alone = model.forward(np.concatenate([prompt, bodies[g]]), last_only=True)
        assert alone.logits.shape == (1, model.vocab_size)
        _bits_equal(alone.hidden, one.hidden[-1:])
        _bits_equal(alone.logits, one.logits[-1:])


@pytest.mark.parametrize("m", [1, 2, 9])
def test_last_only_cache_extends_as_past_to_the_same_bits(model, m):
    rng = np.random.default_rng(m)
    prompt = rng.normal(size=(m, model.dim))
    bodies = rng.normal(size=(3, 4, model.dim))
    full, last = model.forward(prompt), model.forward(prompt, last_only=True)
    assert last.cache["L"] == m
    for layer_full, layer_last in zip(full.cache["layers"], last.cache["layers"]):
        _bits_equal(layer_last["k"], layer_full["k"])
        _bits_equal(layer_last["v"], layer_full["v"])
    for X in (bodies, bodies[0], bodies[0, :1]):  # a stack, a 2-D extension, one row
        for last_only in (False, True):
            want = model.forward(X, past=full.cache, last_only=last_only)
            got = model.forward(X, past=last.cache, last_only=last_only)
            _bits_equal(got.hidden, want.hidden)
            _bits_equal(got.logits, want.logits)


def _rel(got, want):
    """The largest difference, relative to the largest entry of ``want``."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _padded(last_rows, n):
    """``(G, 1, d)`` gradients as ``(G, n, d)`` with zeros above the last row."""
    out = np.zeros((*last_rows.shape[:-2], n, last_rows.shape[-1]))
    out[..., -1:, :] = last_rows
    return out


@pytest.mark.parametrize("stack, n", [(1, 1), (1, 5), (3, 1), (3, 4)])
def test_last_only_backward_matches_the_full_cache(model, stack, n):
    rng = np.random.default_rng(10 * stack + n)
    prompt = rng.normal(size=(4, model.dim))
    bodies = rng.normal(size=(stack, n, model.dim))
    w_hidden = rng.normal(size=(stack, 1, model.dim))
    w_logits = rng.normal(size=(stack, 1, model.vocab_size))
    w_head = rng.normal(size=(4, model.dim))
    # a gradient w.r.t. the logits enters through the tied output layer
    w_last = w_hidden + w_logits @ model.embedding_table().entries
    head = model.forward(prompt)
    full = model.forward(bodies, past=head.cache)
    last = model.forward(bodies, past=head.cache, last_only=True)
    d_past = model.backward_input(last.cache, d_hidden=w_last)
    want_past = model.backward_input(full.cache, d_hidden=_padded(w_last, n))
    for (dk, dv), (want_k, want_v) in zip(d_past, want_past):
        assert _rel(dk, want_k) < 1e-12
        assert _rel(dv, want_v) < 1e-12
    d_prompt = model.backward_input(head.cache, d_hidden=w_head, d_past=d_past)
    want_prompt = model.backward_input(head.cache, d_hidden=w_head, d_past=want_past)
    assert _rel(d_prompt, want_prompt) < 1e-12
    # a 2-D pass from position 0, as generation's first context pass runs
    X = np.concatenate([prompt, bodies[0]])
    dx = model.backward_input(model.forward(X, last_only=True).cache,
                              d_hidden=w_hidden[0])
    want = model.backward_input(model.forward(X).cache,
                                d_hidden=_padded(w_hidden[0], len(X)))
    assert _rel(dx, want) < 1e-12


def test_last_only_backward_refuses_gradients_at_the_full_shape(model):
    bodies = np.random.default_rng(2).normal(size=(2, 3, model.dim))
    last = model.forward(bodies, last_only=True)
    with pytest.raises(ConfigurationError, match=r"shape \(2, 3, 24\)"):
        model.backward_input(last.cache, d_hidden=np.ones((2, 3, model.dim)))


def _last_row_objective(model, prompt, bodies, w_head, w_stack):
    head = model.forward(prompt)
    fw = model.forward(bodies, past=head.cache, last_only=True)
    return float(np.sum(w_head * head.hidden) + np.sum(w_stack * fw.hidden))


def test_last_only_backward_matches_fd(model):
    rng = np.random.default_rng(4)
    prompt = rng.normal(size=(3, model.dim))
    bodies = rng.normal(size=(2, 3, model.dim))
    w_head = rng.normal(size=(3, model.dim))
    w_stack = rng.normal(size=(2, 1, model.dim))
    head = model.forward(prompt)
    fw = model.forward(bodies, past=head.cache, last_only=True)
    d_past = model.backward_input(fw.cache, d_hidden=w_stack)
    d_prompt = model.backward_input(head.cache, d_hidden=w_head, d_past=d_past)
    fd_prompt = fd_grad(lambda x: _last_row_objective(model, x, bodies, w_head, w_stack),
                        prompt)
    assert max_rel_err(d_prompt, fd_prompt) < 1e-5


@pytest.fixture
def pass_shapes(monkeypatch):
    """Wrap ``TinyCausalLM.forward`` and log each call's input shape and the
    shape of the hidden states it returned."""
    log = []
    original = TinyCausalLM.forward

    @functools.wraps(original)
    def logged(*args, **kwargs):
        fw = original(*args, **kwargs)
        log.append((args[1].shape, fw.hidden.shape))
        return fw

    monkeypatch.setattr(TinyCausalLM, "forward", logged)
    return log


# bodies of 2, 0, 1, 3, 1 and 3 words under the bare template
_BARE_TEXTS = ["great fun", "", "dull", "slow movie plot", "good", "bad dull fun"]


def test_label_reads_run_the_top_layer_on_label_rows_only(pass_shapes, model):
    bare = TaskSpec(id="bare", template="{x}", verbalizer={"good": "good", "bad": "bad"},
                    domain_string="review")
    _label_probs(as_soft_prompt("the movie review", model), _BARE_TEXTS, bare, model)
    assert pass_shapes[0] == ((3, model.dim), (1, model.dim))
    stacks = pass_shapes[1:]
    assert [x[:2] for x, _ in stacks] == [(2, 1), (1, 2), (2, 3)]  # by body length
    for x, hidden in stacks:
        assert hidden == (x[0], 1, model.dim)
    pass_shapes.clear()
    LocalContinuationGenerator(model)("the movie was great", 1, p=0.9, length=3,
                                      rng=np.random.default_rng(0))
    assert pass_shapes == [((1, 4, model.dim), (1, 1, model.dim))] + \
        [((1, 1, model.dim), (1, 1, model.dim))] * 2


@pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
def test_training_stacks_run_the_top_layer_on_label_rows_only_when_supervised(
        pass_shapes, model, task, mode):
    """Supervised terms read each body's label row only, so their stacks
    return one row per body; ``domain_nll`` reads every row."""
    cfg = (EnergyConfig.supervised(0.1) if mode == "supervised"
           else EnergyConfig.unsupervised(0.1))
    prompt = SoftPrompt(np.random.default_rng(3).normal(size=(4, model.dim)))
    batch = [Example(t, task.labels[i % 2]) for i, t in enumerate(_BARE_TEXTS)]
    energy_and_grad(prompt, batch, task, model, cfg)
    assert pass_shapes[0] == ((4, model.dim), (4, model.dim))  # fluency reads the head
    assert len(pass_shapes) > 2
    for x, hidden in pass_shapes[1:]:
        rows = 1 if mode == "supervised" else x[1]
        assert hidden == (x[0], rows, model.dim)


# -- the numpy logsumexp, and one rendering per chain ---------------------------

def test_logsumexp_is_bitwise_scipys_on_rows_with_ties():
    """The numpy replica follows scipy's own algorithm; a scipy release that
    changes it shows here."""
    rng = np.random.default_rng(0)
    for trial in range(300):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 70)))
        if trial % 3 == 0:
            rows = rng.integers(-3, 3, size=shape).astype(float)  # many tied maxima
        elif trial % 3 == 1:
            rows = np.round(rng.normal(size=shape), 1)
        else:
            rows = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 30.0, 700.0])
        _bits_equal(_logsumexp(rows), logsumexp(rows, axis=-1))
    _bits_equal(_logsumexp(np.array([1.5, 1.5, -2.0])), logsumexp([1.5, 1.5, -2.0]))


def test_chain_renders_each_example_once(monkeypatch, model, task):
    calls = []
    original = energies.render

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(energies, "render", counted)
    data = synthetic_dataset(6, seed=1)
    cfg = SamplerConfig(eta=0.3, schedule=NoiseSchedule(1.0, 1e-4, 5), steps=5,
                        batch_size=4, seed=2, energy=EnergyConfig.supervised(),
                        prompt_length=3)
    record = run_chain(task, model, cfg, data)
    assert len(record.per_step) == 5
    assert sorted(calls) == sorted(ex.text for ex in data)


@pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
def test_rendered_examples_give_the_bits_of_plain_ones(model, task, mode):
    cfg = (EnergyConfig.supervised(0.2) if mode == "supervised"
           else EnergyConfig.unsupervised(0.2))
    prompt = SoftPrompt(np.random.default_rng(8).normal(size=(3, model.dim)))
    batch = [Example(t, task.labels[i % 2]) for i, t in enumerate(_BARE_TEXTS)]
    plain, g_plain = energy_and_grad(prompt, batch, task, model, cfg)
    rendered, g = energy_and_grad(prompt, energies._rendered(batch, task, model), task,
                                  model, cfg)
    assert rendered == plain
    _bits_equal(g, g_plain)
