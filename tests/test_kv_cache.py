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
    np.testing.assert_array_equal(hidden, full.hidden)
    np.testing.assert_array_equal(logits, full.logits)
    ref_hidden, ref_logits = scratch_forward(model, X)
    np.testing.assert_allclose(hidden, ref_hidden, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)


def test_cached_forward_respects_max_len():
    small = make_reference_model(0)
    small.max_len = 8
    X = np.random.default_rng(0).normal(size=(9, small.dim))
    fw = small.forward(X[:6])
    small.forward(X[6:8], past=fw.cache)  # exactly max_len positions
    with pytest.raises(ConfigurationError):
        small.forward(X[6:9], past=fw.cache)


@pytest.mark.parametrize("last_only", [False, True])
def test_2d_extension_backward_equals_a_stack_of_one(model, last_only):
    rng = np.random.default_rng(7)
    head = model.forward(rng.normal(size=(4, model.dim)))
    X = rng.normal(size=(3, model.dim))
    flat = model.forward(X, past=head.cache, last_only=last_only)
    stack = model.forward(X[None], past=head.cache, last_only=last_only)
    d_hidden = rng.normal(size=flat.hidden.shape)
    d_rows, d_past = model.backward_input(flat.cache, d_hidden=d_hidden)
    s_rows, s_past = model.backward_input(stack.cache, d_hidden=d_hidden[None])
    H = model.n_heads
    assert d_past.shape == (model.n_layers, 2, 1, H, 4, model.dim // H)
    assert d_rows.tobytes() == s_rows.tobytes()
    assert d_past.tobytes() == s_past.tobytes()


@pytest.mark.parametrize("shape", [(3,), (1,), (4, 3), (1, 1), (5, 1)])
@pytest.mark.parametrize("last_only", [False, True])
def test_an_extension_backward_over_stacked_gradients_keeps_each_ones_bits(model, shape,
                                                                         last_only):
    """``R`` gradients on a leading axis: both results lead with that axis,
    and each slice has the bits of its own call."""
    rng = np.random.default_rng(8)
    head = model.forward(rng.normal(size=(4, model.dim)))
    fw = model.forward(rng.normal(size=(*shape, model.dim)), past=head.cache,
                       last_only=last_only)
    d_hidden = rng.normal(size=(3, *fw.hidden.shape))
    d_rows, d_past = model.backward_input(fw.cache, d_hidden=d_hidden)
    H = model.n_heads
    members = shape[0] if len(shape) == 2 else 1
    assert d_rows.shape == (3, *shape, model.dim)
    assert d_past.shape == (3, model.n_layers, 2, members, H, 4, model.dim // H)
    for r in range(3):
        own_rows, own_past = model.backward_input(fw.cache, d_hidden=d_hidden[r])
        assert d_rows[r].tobytes() == own_rows.tobytes()
        assert np.ascontiguousarray(d_past[r]).tobytes() == own_past.tobytes()


def test_stacked_gradients_need_an_extension_without_d_past(model):
    rng = np.random.default_rng(11)
    head = model.forward(rng.normal(size=(4, model.dim)))
    fw = model.forward(rng.normal(size=(2, model.dim)), past=head.cache)
    after = model.forward(rng.normal(size=(2, model.dim)), past=fw.cache)
    _, d_past = model.backward_input(after.cache, d_hidden=np.ones_like(after.hidden))
    model.backward_input(fw.cache, d_hidden=np.ones_like(fw.hidden), d_past=d_past)
    with pytest.raises(ConfigurationError, match="d_hidden has shape"):
        model.backward_input(head.cache, d_hidden=np.ones((2, *head.hidden.shape)))
    with pytest.raises(ConfigurationError, match="d_hidden has shape"):
        model.backward_input(fw.cache, d_hidden=np.ones((2, *fw.hidden.shape)),
                             d_past=d_past)


def test_d_past_on_a_stacked_cache_is_refused(model):
    rng = np.random.default_rng(9)
    head = model.forward(rng.normal(size=(2, 3, model.dim)))
    fw = model.forward(rng.normal(size=(2, 1, model.dim)), past=head.cache)
    _, d_past = model.backward_input(fw.cache, d_hidden=np.ones_like(fw.hidden))
    with pytest.raises(ConfigurationError):
        model.backward_input(head.cache, d_hidden=np.ones_like(head.hidden),
                             d_past=d_past)


@pytest.mark.parametrize("shape", [(3, 1), (1,)])
def test_a_stacked_past_extends_only_a_stack_of_its_members(model, shape):
    rng = np.random.default_rng(10)
    head = model.forward(rng.normal(size=(2, 3, model.dim)))
    with pytest.raises(ConfigurationError):
        model.forward(rng.normal(size=(*shape, model.dim)), past=head.cache)


def test_a_stacked_past_extends_each_member_to_the_bits_of_its_full_pass(model):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(3, 7, model.dim))
    head = model.forward(X[:, :4], last_only=True)
    fw = model.forward(X[:, 4:], past=head.cache)
    full = model.forward(X)
    np.testing.assert_array_equal(fw.hidden, full.hidden[:, 4:])
    np.testing.assert_array_equal(fw.logits, full.logits[:, 4:])


# -- generation ------------------------------------------------------------

def _generate(adapter, text, length, seed, k=1):
    gen = LocalContinuationGenerator(adapter)
    out = gen(text, k, p=0.9, length=length, rng=np.random.default_rng(seed))
    return out, gen.traces


@pytest.mark.parametrize("max_len, length", [(160, 30), (12, 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_cached_generation_matches_full_passes(max_len, length, seed, k):
    """``CountingModel`` overrides ``forward(self, X)``, so it re-runs every
    context in full; the bare model extends its cache.  With ``max_len=12``
    the window slides after a few tokens."""
    lm = make_reference_model(0)
    lm.max_len = max_len
    text = "the movie was great and the plot"
    cached, cached_traces = _generate(lm, text, length, seed, k)
    full, full_traces = _generate(CountingModel(lm), text, length, seed, k)
    assert cached == full
    assert len(cached_traces) == len(full_traces) == k
    for cached_trace, full_trace in zip(cached_traces, full_traces):
        assert [c for _, c in cached_trace] == [c for _, c in full_trace]
        for (p_cached, _), (p_full, _) in zip(cached_trace, full_trace):
            np.testing.assert_array_equal(p_cached, p_full)


@pytest.mark.parametrize("max_len", [160, 12])
def test_a_stack_of_continuations_equals_one_at_a_time(max_len):
    """Continuation ``j`` of a stack reads block ``j`` of the stream, so a
    stack of three gives the texts and traces of three single draws."""
    lm = make_reference_model(1)
    lm.max_len = max_len
    text = "the movie was great and the plot"
    gen = LocalContinuationGenerator(lm)
    rng = np.random.default_rng(4)
    stacked = gen(text, 3, p=0.95, length=15, rng=rng)
    after_stack = rng.random()
    one_gen = LocalContinuationGenerator(lm)
    rng = np.random.default_rng(4)
    single = [one_gen(text, 1, p=0.95, length=15, rng=rng)[0] for _ in range(3)]
    assert stacked == single
    assert rng.random() == after_stack
    assert len(gen.traces) == len(one_gen.traces) == 3
    for trace, one in zip(gen.traces, one_gen.traces):
        assert [c for _, c in trace] == [c for _, c in one]
        for (p_stack, _), (p_one, _) in zip(trace, one):
            assert p_stack.tobytes() == p_one.tobytes()


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
    LocalContinuationGenerator(lm)("the movie was great", 1, p=0.9, length=10,
                                   rng=np.random.default_rng(0))
    assert row_log == [(1, 4)] + [(1, 1)] * 9


def test_generation_slides_window_with_full_passes(row_log):
    small = make_reference_model(0)
    small.max_len = 8
    LocalContinuationGenerator(small)("the movie was great", 1, p=0.9, length=8,
                                      rng=np.random.default_rng(0))
    # contexts 4..7 grow by one row; from then on every step slides the window
    assert row_log == [(1, 4), (1, 1), (1, 1), (1, 1), (1, 7), (1, 7), (1, 7), (1, 7)]


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
    out = gen("the movie", 2, p=0.9, length=6, rng=np.random.default_rng(0))
    assert out == [" ".join(["cinema"] * 6)] * 2


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
        super().__init__(seed=0)
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


@pytest.mark.parametrize("shape", [(2, 2), (2,)])  # a stack, a 2-D extension
def test_stacked_extension_backward_matches_fd(model, shape):
    rng = np.random.default_rng(3)
    prompt = rng.normal(size=(3, model.dim))
    bodies = rng.normal(size=(*shape, model.dim))
    w_head = rng.normal(size=(3, model.dim))
    w_stack = rng.normal(size=(*shape, model.dim))
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



@pytest.mark.parametrize("members, last_only", [(1, False), (3, False), (17, True)])
def test_stacked_backward_returns_one_key_value_array(model, members, last_only):
    """One array ``(n_layers, 2, G, H, start, dh)`` per stacked backward; the
    extended pass's backward over it has the bits of one over its member sum."""
    rng = np.random.default_rng(members)
    prompt = rng.normal(size=(4, model.dim))
    head = model.forward(prompt)
    fw = model.forward(rng.normal(size=(members, 3, model.dim)), past=head.cache,
                       last_only=last_only)
    _, d_past = model.backward_input(fw.cache, d_hidden=rng.normal(size=fw.hidden.shape))
    H = model.n_heads
    assert isinstance(d_past, np.ndarray)
    assert d_past.shape == (model.n_layers, 2, members, H, 4, model.dim // H)
    w_head = rng.normal(size=head.hidden.shape)
    whole = model.backward_input(head.cache, d_hidden=w_head, d_past=d_past)
    summed = model.backward_input(head.cache, d_hidden=w_head,
                                  d_past=d_past.sum(axis=2, keepdims=True))
    assert whole.tobytes() == summed.tobytes()


@pytest.mark.parametrize("last_only", [False, True])
@pytest.mark.parametrize("m, n, members", [(1, 1, 5), (3, 6, 16), (10, 8, 16),
                                           (4, 1, 40), (13, 30, 9), (7, 13, 69)])
def test_a_members_backward_has_the_same_bits_in_any_stack(model, m, n, members,
                                                           last_only):
    """A member's row gradients and key/value gradients are bitwise those it
    gets in a random sub-stack and in a stack of one."""
    rng = np.random.default_rng(m * n + members)
    head = model.forward(rng.normal(size=(m, model.dim)))
    X = rng.normal(size=(members, n, model.dim))

    def backward(pick):
        fw = model.forward(X[pick], past=head.cache, last_only=last_only)
        return model.backward_input(fw.cache, d_hidden=d_hidden[pick])

    d_hidden = rng.normal(size=(members, 1 if last_only else n, model.dim))
    rows, kv = backward(np.arange(members))
    sub = np.sort(rng.choice(members, size=max(1, members // 3), replace=False))
    sub_rows, sub_kv = backward(sub)
    for j, g in enumerate(sub):
        one_rows, one_kv = backward([g])
        assert rows[g].tobytes() == sub_rows[j].tobytes() == one_rows[0].tobytes()
        assert (kv[:, :, g].tobytes() == sub_kv[:, :, j].tobytes()
                == one_kv[:, :, 0].tobytes())

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
