"""KV-cached read path: ``forward(X, past=...)`` and the callers that use it."""

import functools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import CountingModel
from oracles import fd_grad, max_rel_err, scratch_forward
from promptsearch.analysis import LocalContinuationGenerator
from promptsearch.errors import ConfigurationError
from promptsearch.metrics import accuracy
from promptsearch.model import (
    REFERENCE_VOCAB,
    SoftPrompt,
    TinyCausalLM,
    _input_matrix,
    _label_probs,
    _restricted_softmax,
    as_soft_prompt,
    label_word_distribution,
    make_reference_model,
)
from promptsearch.synthetic import synthetic_dataset
from promptsearch.tasks import Example, TaskSpec, render, verbalizer_token_ids


def _chained(model, X, cuts):
    """Run ``X`` as a full pass up to ``cuts[0]``, then one extension per cut."""
    bounds = [0, *cuts, len(X)]
    fw, hidden, logits = None, [], []
    for a, b in zip(bounds, bounds[1:]):
        fw = model.forward(X[a:b], past=None if fw is None else fw.cache)
        assert fw.hidden.shape == (b - a, model.dim)
        assert fw.cache["L"] == b
        hidden.append(fw.hidden)
        logits.append(fw.logits)
    return np.concatenate(hidden), np.concatenate(logits), fw


@pytest.mark.parametrize("cuts", [[1], [5, 6, 7, 8], [3, 11], [9, 10, 20, 21]])
def test_chained_cached_forward_matches_full_and_oracle(model, cuts):
    rng = np.random.default_rng(len(cuts))
    X = rng.normal(size=(24, model.dim))
    hidden, logits, _ = _chained(model, X, cuts)
    full = model.forward(X)
    np.testing.assert_allclose(hidden, full.hidden, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logits, full.logits, rtol=0, atol=1e-12)
    ref_hidden, ref_logits = scratch_forward(model, X)
    np.testing.assert_allclose(hidden, ref_hidden, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)


def test_cached_forward_respects_max_len():
    small = make_reference_model(0, max_len=8)
    X = np.random.default_rng(0).normal(size=(9, small.dim))
    fw = small.forward(X[:6])
    small.forward(X[6:8], past=fw.cache)  # exactly max_len positions
    with pytest.raises(ConfigurationError):
        small.forward(X[6:9], past=fw.cache)


def test_backward_input_rejects_extended_cache(model):
    X = np.random.default_rng(1).normal(size=(6, model.dim))
    fw = model.forward(X[4:], past=model.forward(X[:4]).cache)
    with pytest.raises(ConfigurationError):
        model.backward_input(fw.cache, d_hidden=np.ones_like(fw.hidden))


# -- generation ------------------------------------------------------------

def _generate(adapter, text, length, seed):
    gen = LocalContinuationGenerator(adapter)
    out = gen(text, p=0.9, length=length, rng=np.random.default_rng(seed))
    return out, gen.traces[0]


@pytest.mark.parametrize("max_len, length", [(160, 30), (12, 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cached_generation_matches_full_passes(max_len, length, seed):
    """``CountingModel`` overrides ``forward(self, X)``, so it re-runs every
    context in full; the bare model extends its cache.  With ``max_len=12``
    the window slides after a few tokens."""
    lm = make_reference_model(0, max_len=max_len)
    text = "the movie was great and the plot"
    cached, cached_trace = _generate(lm, text, length, seed)
    full, full_trace = _generate(CountingModel(lm), text, length, seed)
    assert cached == full
    assert [c for _, c in cached_trace] == [c for _, c in full_trace]
    for (p_cached, _), (p_full, _) in zip(cached_trace, full_trace):
        np.testing.assert_allclose(p_cached, p_full, rtol=0, atol=1e-12)


@pytest.fixture
def row_log(monkeypatch):
    """Replace ``TinyCausalLM.forward`` by a ``functools.wraps`` wrapper, as a
    tracer would, that logs how many rows each call runs, or ``(G, n)`` for a
    stack of ``G`` bodies of ``n`` rows each."""
    rows = []
    original = TinyCausalLM.forward

    @functools.wraps(original)
    def logged(*args, **kwargs):
        X = args[1]
        rows.append(X.shape[:2] if X.ndim == 3 else len(X))
        return original(*args, **kwargs)

    monkeypatch.setattr(TinyCausalLM, "forward", logged)
    return rows


def test_generation_extends_one_row_per_token_through_wrapped_forward(row_log):
    lm = make_reference_model(0)
    LocalContinuationGenerator(lm)("the movie was great", p=0.9, length=10,
                                   rng=np.random.default_rng(0))
    assert row_log == [4] + [1] * 9


def test_generation_slides_window_with_full_passes(row_log):
    small = make_reference_model(0, max_len=8)
    LocalContinuationGenerator(small)("the movie was great", p=0.9, length=8,
                                      rng=np.random.default_rng(0))
    # contexts 4..7 grow by one row; from then on every step slides the window
    assert row_log == [4, 1, 1, 1, 7, 7, 7, 7]


# -- accuracy --------------------------------------------------------------

@pytest.mark.parametrize("prompt", [None, "the", "movie review about fun"])
def test_prefix_cached_accuracy_matches_per_example_readout(model, task, prompt):
    data = synthetic_dataset(40, seed=9)
    soft = as_soft_prompt(prompt, model)
    hits = sum(
        task.labels[int(np.argmax(label_word_distribution(soft, ex.text, task,
                                                          model).probs))] == ex.label
        for ex in data
    )
    assert accuracy(prompt, data, task, model) == hits / len(data)
    assert accuracy(prompt, data, task, CountingModel(model)) == hits / len(data)


def test_accuracy_runs_prompt_once_then_bodies(row_log, model, task):
    data = synthetic_dataset(5, seed=2)
    accuracy("the movie review", data, task, model)
    body_rows = [len(render(task, ex.text, model)) for ex in data]
    # one stack per body length: five examples fit one stack
    assert row_log == [3] + [(count, n) for n, count in sorted(Counter(body_rows).items())]
    row_log.clear()
    accuracy(None, data, task, model)  # no prompt: no head pass, the same stacks
    assert row_log == [(count, n) for n, count in sorted(Counter(body_rows).items())]


class _BoostToken:
    """Gate-10-style wrapper: overrides ``forward(self, X)`` to add a large
    constant to one token's logit and delegates the rest."""

    def __init__(self, inner, token_id):
        self._inner = inner
        self._token_id = token_id

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def forward(self, X):
        fw = self._inner.forward(X)
        fw.logits = fw.logits.copy()
        fw.logits[:, self._token_id] += 1e3
        return fw


def test_forward_override_takes_effect_in_accuracy_with_prompt(model, task):
    data = synthetic_dataset(30, seed=4)
    first = verbalizer_token_ids(task, model)[0]
    wrapped = _BoostToken(model, first)
    expected = sum(ex.label == task.labels[0] for ex in data) / len(data)
    assert accuracy("the movie review", data, task, wrapped) == expected


def test_forward_override_takes_effect_in_generation(model):
    target = model.tokenize("cinema")[0]
    gen = LocalContinuationGenerator(_BoostToken(model, target))
    out = gen("the movie", p=0.9, length=6, rng=np.random.default_rng(0))
    assert out == " ".join(["cinema"] * 6)


def test_prefix_cached_accuracy_with_empty_body(model):
    """Template ``{x}`` and an empty input: the prompt's own pass is the readout."""
    bare = TaskSpec(id="bare", template="{x}",
                    verbalizer={"good": "good", "bad": "bad"},
                    domain_string="review")
    soft = as_soft_prompt("the movie was", model)
    probs = label_word_distribution(soft, "", bare, model).probs
    for label in bare.labels:
        expected = float(bare.labels[int(np.argmax(probs))] == label)
        assert accuracy(soft, [Example("", label)], bare, model) == expected


# -- who extends a pass ------------------------------------------------------

class _LoggedLM(TinyCausalLM):
    """A subclass overriding ``forward(self, X)`` without ``past``: it must get
    full passes, and logs how many rows each runs."""

    def __init__(self):
        super().__init__(seed=0, vocab=REFERENCE_VOCAB, dim=24, n_layers=2,
                         n_heads=4, max_len=160)
        self.rows = []

    def forward(self, X):
        self.rows.append(len(X))
        return super().forward(X)


def test_forward_override_in_subclass_gets_full_passes_in_accuracy(model, task):
    sub = _LoggedLM()
    data = synthetic_dataset(6, seed=3)
    assert accuracy("the movie review", data, task, sub) == \
        accuracy("the movie review", data, task, model)
    assert sub.rows == [3 + len(render(task, ex.text, model)) for ex in data]


def test_forward_override_in_subclass_gets_full_passes_in_generation(model):
    sub = _LoggedLM()
    out, _ = _generate(sub, "the movie was great", 5, 0)
    assert out == _generate(model, "the movie was great", 5, 0)[0]
    assert sub.rows == [4, 5, 6, 7, 8]


def test_label_word_distribution_extends_the_prompt_pass(row_log, model, task):
    soft = as_soft_prompt("the movie review", model)
    dist = label_word_distribution(soft, "great fun", task, model)
    assert row_log == [3, (1, len(render(task, "great fun", model)))]
    X = np.concatenate([soft.entries,
                        model.embedding_table().entries[render(task, "great fun", model)]])
    full = model.forward(X).logits[-1, verbalizer_token_ids(task, model)]
    expected = np.exp(full - full.max())
    np.testing.assert_allclose(dist.probs, expected / expected.sum(), rtol=0, atol=1e-12)


# -- stacked extensions ------------------------------------------------------

@pytest.mark.parametrize("stack, n", [(1, 1), (5, 1), (3, 4), (1, 6), (17, 30)])
def test_stacked_extension_matches_per_example_extensions_and_oracle(model, stack, n):
    rng = np.random.default_rng(10 * stack + n)
    prompt = rng.normal(size=(5, model.dim))
    bodies = rng.normal(size=(stack, n, model.dim))
    # without ``past`` each body of a stack is its own full pass
    alone = model.forward(bodies)
    assert alone.logits.shape == (stack, n, model.vocab_size)
    for g in range(stack):
        full = model.forward(bodies[g])
        np.testing.assert_array_equal(alone.hidden[g], full.hidden)
        np.testing.assert_array_equal(alone.logits[g], full.logits)
    head = model.forward(prompt)
    fw = model.forward(bodies, past=head.cache)
    assert fw.hidden.shape == (stack, n, model.dim)
    assert fw.logits.shape == (stack, n, model.vocab_size)
    for g in range(stack):
        X = np.concatenate([prompt, bodies[g]])
        one = model.forward(bodies[g], past=head.cache)
        np.testing.assert_allclose(fw.hidden[g], one.hidden, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fw.logits[g], one.logits, rtol=0, atol=1e-12)
        ref_hidden, ref_logits = scratch_forward(model, X)
        np.testing.assert_allclose(fw.hidden[g], ref_hidden[5:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(fw.logits[g], ref_logits[5:], rtol=0, atol=1e-12)
        # every row of a stack gets the bits of the same row of a full pass
        full = model.forward(X)
        np.testing.assert_array_equal(fw.hidden[g], full.hidden[5:])
        np.testing.assert_array_equal(fw.logits[g], full.logits[5:])


def _stacked_objective(model, prompt, bodies, w_head, w_stack):
    head = model.forward(prompt)
    fw = model.forward(bodies, past=head.cache)
    return float(np.sum(w_head * head.hidden) + np.sum(w_stack * fw.hidden))


def test_stacked_extension_backward_matches_fd(model):
    rng = np.random.default_rng(3)
    prompt = rng.normal(size=(3, model.dim))
    bodies = rng.normal(size=(2, 2, model.dim))
    w_head = rng.normal(size=(3, model.dim))
    w_stack = rng.normal(size=(2, 2, model.dim))
    head = model.forward(prompt)
    fw = model.forward(bodies, past=head.cache)
    d_bodies, d_past = model.backward_input(fw.cache, d_hidden=w_stack)
    assert len(d_past) == model.n_layers
    d_prompt = model.backward_input(head.cache, d_hidden=w_head, d_past=d_past)
    fd_prompt = fd_grad(lambda x: _stacked_objective(model, x, bodies, w_head, w_stack),
                        prompt)
    fd_bodies = fd_grad(lambda x: _stacked_objective(model, prompt, x, w_head, w_stack),
                        bodies)
    assert max_rel_err(d_prompt, fd_prompt) < 1e-5
    assert max_rel_err(d_bodies, fd_bodies) < 1e-5


# -- stacked reads -----------------------------------------------------------

_BARE = TaskSpec(id="bare", template="{x}", verbalizer={"good": "good", "bad": "bad"},
                 domain_string="review")  # a text's words are its whole body

# bodies of 0 to 3 words, out of order; with a 3-row prompt at most
# 128 // (3 + 3) = 21 three-word bodies fit one stack, so that group takes two
_LENGTHS = [2, 0, 3, 1, 3, 0, 1, 2] + [3] * 30


def _texts(lengths, seed=0):
    rng = np.random.default_rng(seed)
    words = ("great", "fun", "dull", "slow", "movie", "plot", "good", "bad")
    return [" ".join(rng.choice(words, size=n)) for n in lengths]


def _full_pass_probs(prompt, texts, task, model):
    vids = verbalizer_token_ids(task, model)
    return np.array([
        _restricted_softmax(
            model.forward(_input_matrix(prompt, render(task, t, model), model)).logits[-1],
            vids)
        for t in texts])


@pytest.mark.parametrize("prompt", [None, "the", "the movie review", "soft"])
def test_stacked_read_equals_full_passes_bitwise(model, prompt):
    if prompt == "soft":
        soft = SoftPrompt(np.random.default_rng(7).normal(size=(5, model.dim)))
    else:
        soft = as_soft_prompt(prompt, model)
    # the empty prompt needs a body in every example
    texts = _texts([n for n in _LENGTHS if n or soft is not None])
    expected = _full_pass_probs(soft, texts, _BARE, model)
    np.testing.assert_array_equal(_label_probs(soft, texts, _BARE, model), expected)
    # an adapter that does not extend passes reads the same bits
    np.testing.assert_array_equal(_label_probs(soft, texts, _BARE, CountingModel(model)),
                                  expected)


def _stack_sizes(m, lengths):
    """The expected stacks: per non-empty body length, groups of at most
    ``max(1, 128 // (m + n))`` bodies."""
    counts = Counter(n for n in lengths if n)
    return {n: (count, max(1, 128 // (m + n))) for n, count in counts.items()}


@pytest.mark.parametrize("prompt", [None, "the movie review",
                                    "the movie review about fun and the plot was great"])
def test_stacked_read_runs_one_forward_per_stack(row_log, model, prompt):
    soft = as_soft_prompt(prompt, model)
    m = 0 if soft is None else soft.length
    lengths = [n for n in _LENGTHS if n or soft is not None] + [3] * 60
    _label_probs(soft, _texts(lengths), _BARE, model)
    sizes = _stack_sizes(m, lengths)
    heads = [] if soft is None else [soft.length]  # no prompt: no head pass
    assert row_log[:len(heads)] == heads
    stacks = row_log[len(heads):]
    assert len(stacks) == sum(math.ceil(count / g) for count, g in sizes.values())
    for g, n in stacks:
        assert g <= sizes[n][1]
        assert g == 1 or g * (m + n) <= 128
    assert sum(g for g, _ in stacks) == sum(n > 0 for n in lengths)


def test_forward_overrides_keep_one_full_pass_per_example(model):
    sub = _LoggedLM()
    soft = as_soft_prompt("the movie review", model)
    texts = _texts(_LENGTHS)
    np.testing.assert_array_equal(_label_probs(soft, texts, _BARE, sub),
                                  _label_probs(soft, texts, _BARE, model))
    assert sub.rows == [3 + n for n in _LENGTHS]


@pytest.mark.parametrize("bad_id", ["over", "negative"])
def test_stacked_read_checks_inputs_before_any_pass(row_log, model, bad_id):
    with pytest.raises(ConfigurationError, match="nothing to run"):
        _label_probs(None, _texts([2, 3, 0]), _BARE, model)
    wide = SoftPrompt(np.zeros((2, model.dim + 1)))
    with pytest.raises(ConfigurationError, match="prompt dim"):
        _label_probs(wide, _texts([2, 3]), _BARE, model)
    odd = make_reference_model(0)
    wrong = odd.vocab_size if bad_id == "over" else -1
    odd.tokenize = lambda text: [wrong] if text == "zzz" else model.tokenize(text)
    with pytest.raises(ConfigurationError, match="outside vocabulary"):
        _label_probs(as_soft_prompt("the movie", model), ["great fun", "zzz"], _BARE, odd)
    assert row_log == []


def _accuracy_peak(model, task, prompt, data):
    tracemalloc.start()
    try:
        accuracy(prompt, data, task, model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_read_memory_does_not_grow_with_the_dataset(model, task):
    """The stack bound keeps the peak of scoring 400 equal-length examples
    near that of 100, with or without a prompt; one stack per length would
    hold all 400 at once."""
    texts = _texts([6] * 400, seed=3)
    data = [Example(t, task.labels[i % 2]) for i, t in enumerate(texts)]
    for prompt in [None, "the movie review about fun and the plot was great"]:
        accuracy(prompt, data[:10], task, model)  # warm-up: one-time allocations
        small = _accuracy_peak(model, task, prompt, data[:100])
        large = _accuracy_peak(model, task, prompt, data)
        assert large <= 1.25 * small, (prompt, small, large)
