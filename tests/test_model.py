"""Reference model: forward oracle, VJP fidelity, tokenizer, adapter registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_grad, max_rel_err, scratch_forward
from promptsearch.errors import ConfigurationError, ModelFault, UsageError
from promptsearch.tasks import TaskSpec
from promptsearch.model import (
    REFERENCE_VOCAB,
    EmbeddingTable,
    LabelDistribution,
    SoftPrompt,
    as_soft_prompt,
    label_word_distribution,
    load_adapter,
    make_reference_model,
    prompt_from_ids,
    register_adapter,
)


# -- forward pass against the scratch oracle -------------------------------

@pytest.mark.parametrize("length", [1, 2, 7, 23])
def test_forward_matches_loop_oracle(model, length):
    rng = np.random.default_rng(length)
    X = rng.normal(size=(length, model.dim))
    fw = model.forward(X)
    hidden, logits = scratch_forward(model, X)
    np.testing.assert_allclose(fw.hidden, hidden, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fw.logits, logits, rtol=1e-10, atol=1e-12)


def test_forward_matches_oracle_on_token_rows(model):
    ids = model.tokenize("the movie was great and the plot was not boring")
    X = model.embedding_table().entries[ids]
    fw = model.forward(X)
    hidden, logits = scratch_forward(model, X)
    np.testing.assert_allclose(fw.hidden, hidden, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fw.logits, logits, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m", [2, 5, 12])
def test_causal_prefix_is_bitwise_independent_of_what_follows(model, m):
    """Energies read a prompt's own pass off the prefix of any longer pass."""
    rng = np.random.default_rng(m)
    prompt = rng.normal(size=(m, model.dim))
    alone = model.forward(prompt)
    for body_len in (1, 3, 9, 30, model.max_len - m):
        body = model.embedding_table().entries[rng.integers(0, model.vocab_size,
                                                            size=body_len)]
        fw = model.forward(np.concatenate([prompt, body]))
        np.testing.assert_array_equal(fw.hidden[:m], alone.hidden)
        np.testing.assert_array_equal(fw.logits[:m], alone.logits)


def test_forward_at_max_length(model):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(model.max_len, model.dim))
    fw = model.forward(X)
    assert fw.logits.shape == (model.max_len, model.vocab_size)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_faults_on_non_finite_logits(model):
    """Inputs at the edge of float64 overflow the residual stream; the pass
    refuses the logits rather than return them."""
    with pytest.raises(ModelFault, match="non-finite logits"):
        model.forward(np.full((3, model.dim), 1e308))


def test_forward_rejects_bad_shapes(model):
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((2, model.dim + 1)))
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((0, model.dim)))
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((model.max_len + 1, model.dim)))


def test_causality_prefix_invariance(model):
    """Logits at position i do not depend on rows after i."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(9, model.dim))
    full = model.forward(X).logits
    for cut in (1, 4, 8):
        part = model.forward(X[:cut]).logits
        np.testing.assert_allclose(part, full[:cut], rtol=1e-12, atol=1e-12)


# -- backward_input against finite differences ------------------------------

def test_backward_hidden_vjp_matches_fd(model):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, model.dim))
    W = rng.normal(size=(5, model.dim))

    def scalar(x):
        return float(np.sum(W * model.forward(x).hidden))

    fw = model.forward(X)
    analytic = model.backward_input(fw.cache, d_hidden=W)
    assert max_rel_err(analytic, fd_grad(scalar, X)) < 1e-5


def test_backward_logits_vjp_matches_fd(model):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(4, model.dim))
    W = rng.normal(size=(4, model.vocab_size))

    def scalar(x):
        return float(np.sum(W * model.forward(x).logits))

    fw = model.forward(X)
    analytic = model.backward_input(fw.cache, d_logits=W)
    assert max_rel_err(analytic, fd_grad(scalar, X)) < 1e-5


def test_backward_combined_vjp_is_sum(model):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(3, model.dim))
    Wh = rng.normal(size=(3, model.dim))
    Wl = rng.normal(size=(3, model.vocab_size))
    fw = model.forward(X)
    combined = model.backward_input(fw.cache, d_hidden=Wh, d_logits=Wl)
    separate = (model.backward_input(fw.cache, d_hidden=Wh)
                + model.backward_input(fw.cache, d_logits=Wl))
    np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-14)


# -- determinism and construction -------------------------------------------

def test_same_seed_same_weights_and_outputs():
    a = make_reference_model(11)
    b = make_reference_model(11)
    assert np.array_equal(a.embedding_table().entries, b.embedding_table().entries)
    X = np.random.default_rng(1).normal(size=(6, a.dim))
    assert np.array_equal(a.forward(X).logits, b.forward(X).logits)


def test_different_seed_different_weights():
    a = make_reference_model(0)
    b = make_reference_model(1)
    assert not np.array_equal(a.embedding_table().entries,
                              b.embedding_table().entries)


def test_reference_vocab_shape_and_specials(model):
    assert model.vocab_size == len(REFERENCE_VOCAB)
    assert model.token_text[model.pad_id] == "<pad>"
    assert model.token_text[model.unk_id] == "<unk>"
    assert model.special_token_ids == {model.pad_id, model.unk_id}
    assert model.neutral_token_id not in model.special_token_ids
    assert model.neutral_token_id == min(
        i for i in range(model.vocab_size) if i not in model.special_token_ids
    )


def test_extra_tokens_extend_vocabulary():
    m = make_reference_model(0, extra_tokens=("zork",))
    assert m.vocab_size == len(REFERENCE_VOCAB) + 1
    assert m.tokenize("zork") == [m.vocab_size - 1]
    with pytest.raises(ConfigurationError):
        make_reference_model(0, extra_tokens=("the",))


def test_dim_head_divisibility_guard():
    with pytest.raises(ConfigurationError):
        make_reference_model(0, dim=25, n_heads=4)


def test_duplicate_vocab_rejected():
    with pytest.raises(ConfigurationError):
        make_reference_model(0, vocab=("<pad>", "<unk>", "a", "a"))


def test_duplicate_tokens_are_named():
    """One check refuses a repeated base token and an extra token already in
    the vocabulary, naming each repeated token once."""
    with pytest.raises(ConfigurationError, match=r"duplicate tokens: \['a', 'b'\]$"):
        make_reference_model(0, vocab=("<pad>", "<unk>", "a", "b", "a", "b", "a"))
    with pytest.raises(ConfigurationError, match=r"duplicate tokens: \['the'\]$"):
        make_reference_model(0, extra_tokens=("zork", "THE"))


# -- tokenizer ---------------------------------------------------------------

def test_tokenize_lowercases_and_maps_unk(model):
    ids = model.tokenize("The MOVIE was Zorkish")
    words = [model.token_text[i] for i in ids]
    assert words == ["the", "movie", "was", "<unk>"]


def test_tokenize_splits_punctuation(model):
    ids = model.tokenize("great, not boring.")
    assert [model.token_text[i] for i in ids] == ["great", ",", "not", "boring", "."]


def test_decode_tokenize_round_trip_on_vocab_words(model):
    text = "the movie was not boring"
    assert model.decode(model.tokenize(text)) == text


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, len(REFERENCE_VOCAB) - 1), min_size=1, max_size=8))
def test_decode_then_tokenize_is_identity(ids):
    """Any id sequence over the whole vocabulary, ``<pad>`` and ``<unk>``
    included, survives decode then tokenize."""
    model = make_reference_model(0)
    assert model.tokenize(model.decode(ids)) == ids


# -- dataclasses and validation ----------------------------------------------

def test_embedding_table_validation():
    with pytest.raises(ConfigurationError):
        EmbeddingTable(entries=np.zeros((3, 2)), token_text=("a", "b"))
    with pytest.raises(ConfigurationError):
        EmbeddingTable(entries=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                       token_text=("a", "b"))
    with pytest.raises(ConfigurationError):
        EmbeddingTable(entries=np.zeros((3, 2, 1)), token_text=("a", "b", "c"))


def test_embedding_table_needs_two_rows():
    with pytest.raises(ConfigurationError, match="too small: V=1"):
        EmbeddingTable(entries=np.zeros((1, 2)), token_text=("a",))


def test_soft_prompt_validation():
    with pytest.raises(ConfigurationError):
        SoftPrompt(entries=np.zeros((0, 4)))
    with pytest.raises(ConfigurationError):
        SoftPrompt(entries=np.array([[np.inf, 0.0]]))
    with pytest.raises(ConfigurationError):
        SoftPrompt(entries=np.zeros((2, 4)), token_ids=(1,))
    p = SoftPrompt(entries=np.zeros((2, 4)), token_ids=(3, 5))
    assert p.length == 2 and p.dim == 4


def test_label_distribution_validation():
    with pytest.raises(ValueError):
        LabelDistribution(labels=("a", "b"), probs=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        LabelDistribution(labels=("a",), probs=np.array([0.5, 0.5]))
    d = LabelDistribution(labels=("a", "b"), probs=np.array([0.25, 0.75]))
    assert d["b"] == 0.75


# -- adapter-level operations --------------------------------------------------

def test_label_word_distribution_rejects_empty_everything(model, task):
    bare = TaskSpec(id="bare", template="{x}", verbalizer=task.verbalizer,
                    domain_string=task.domain_string)
    with pytest.raises(ConfigurationError, match="nothing to run"):
        label_word_distribution(None, "", bare, model)
    # a body id outside the vocabulary, from an adapter's tokenizer
    odd = make_reference_model(0)
    odd.tokenize = lambda text: [odd.vocab_size] if text == "zzz" else model.tokenize(text)
    with pytest.raises(ConfigurationError, match="outside vocabulary"):
        label_word_distribution(None, "zzz", task, odd)


def test_label_word_distribution_restricted_normalization(model, task):
    dist = label_word_distribution(None, "great fun", task, model)
    assert dist.labels == ("good", "bad")
    assert abs(float(np.sum(dist.probs)) - 1.0) < 1e-12
    # manual recount from raw logits
    from promptsearch.tasks import render, verbalizer_token_ids
    body = render(task, "great fun", model)
    vids = verbalizer_token_ids(task, model)
    raw = model.forward(model.embedding_table().entries[body]).logits[-1, vids]
    manual = np.exp(raw - raw.max())
    manual /= manual.sum()
    np.testing.assert_allclose(dist.probs, manual, rtol=1e-12)


def test_as_soft_prompt_coercions(model):
    assert as_soft_prompt(None, model) is None
    text_prompt = as_soft_prompt("the movie", model)
    assert text_prompt.token_ids == tuple(model.tokenize("the movie"))
    same = as_soft_prompt(text_prompt, model)
    assert same is text_prompt
    with pytest.raises(UsageError):
        as_soft_prompt("", model)


def test_prompt_from_ids_copies_rows(model):
    p = prompt_from_ids([2, 3], model)
    p.entries[0, 0] += 1.0
    assert model.embedding_table().entries[2, 0] != p.entries[0, 0]


# -- adapter registry -----------------------------------------------------------

def test_load_adapter_reference_scheme():
    m = load_adapter("reference:5")
    assert m.seed == 5


def test_load_adapter_unknown_scheme():
    with pytest.raises(ConfigurationError):
        load_adapter("nope:1")
    with pytest.raises(ConfigurationError):
        load_adapter("reference")


def test_register_adapter_round_trip():
    sentinel = object()
    register_adapter("testscheme", lambda arg: (sentinel, arg))
    loaded = load_adapter("testscheme:xyz")
    assert loaded == (sentinel, "xyz")
