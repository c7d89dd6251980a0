"""Evaluation metrics: accuracy, perplexity, unigram diversity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedHeadModel, stub_model_with_label_probs
from oracles import token_nll_recount
from promptsearch.errors import UsageError
from promptsearch.metrics import accuracy, dist1, log_perplexity, prompt_perplexity
from promptsearch.model import prompt_from_ids
from promptsearch.tasks import Example


# -- accuracy ------------------------------------------------------------------

def test_accuracy_counts_argmax_hits(stub_task, stub_vocab):
    m = stub_model_with_label_probs(stub_vocab, (0.8, 0.2))  # predicts "pos"
    data = [Example("so", "pos"), Example("so", "pos"), Example("so", "neg"),
            Example("the", "neg")]
    assert accuracy(None, data, stub_task, m) == 0.5


def test_accuracy_tie_goes_to_first_label(stub_task, stub_vocab):
    m = stub_model_with_label_probs(stub_vocab, (0.5, 0.5))
    data = [Example("so", "pos"), Example("so", "neg")]
    # exact tie -> always predicts the first verbalizer label ("pos")
    assert accuracy(None, data, stub_task, m) == 0.5
    assert accuracy(None, [Example("so", "pos")], stub_task, m) == 1.0


def test_accuracy_prompt_forms_agree(model, task, small_data):
    """String, SoftPrompt, and token-id forms of the same prompt score alike."""
    text = "the movie was great"
    as_ids = prompt_from_ids(model.tokenize(text), model)
    assert accuracy(text, small_data, task, model) == \
        accuracy(as_ids, small_data, task, model)


def test_accuracy_empty_prompt_allowed(model, task, small_data):
    val = accuracy(None, small_data, task, model)
    assert 0.0 <= val <= 1.0


def test_accuracy_input_validation(model, task):
    with pytest.raises(UsageError):
        accuracy(None, [], task, model)
    with pytest.raises(UsageError):
        accuracy(None, [Example("great")], task, model)


def test_accuracy_refuses_a_label_outside_the_task(model, task):
    """An example whose label is no task label is refused, not scored a miss."""
    with pytest.raises(UsageError, match="label 'zzz' outside task labels"):
        accuracy("the", [Example("great fun", "good"), Example("great fun", "zzz")],
                 task, model)


def test_accuracy_on_separable_data_beats_chance_with_cue_prompt(model, task):
    """Sanity: the synthetic task is learnable at all on this model."""
    from promptsearch.synthetic import synthetic_dataset
    data = synthetic_dataset(60, seed=3)
    vals = [accuracy(p, data, task, model)
            for p in (None, "this is a review", "good bad")]
    assert any(v != 0.5 for v in vals)


# -- perplexity -------------------------------------------------------------------

def test_log_perplexity_uniform_head_equals_log_v(stub_vocab):
    m = FixedHeadModel(stub_vocab, np.zeros(len(stub_vocab)))
    assert abs(log_perplexity("the it was", m) - math.log(len(stub_vocab))) \
        < 1e-12
    assert abs(prompt_perplexity("the it was", m) - len(stub_vocab)) < 1e-9


def test_log_perplexity_deterministic_head_is_zero(stub_vocab):
    # logits force token id 6 ("the") with probability ~1 everywhere
    row = np.full(len(stub_vocab), -60.0)
    row[6] = 40.0
    m = FixedHeadModel(stub_vocab, row)
    assert abs(log_perplexity("the the the", m)) < 1e-12
    assert abs(prompt_perplexity("the the the", m) - 1.0) < 1e-9


def test_log_perplexity_matches_scratch_recount(model):
    for text in ("the movie was great", "not a boring story", "good bad good"):
        ids = model.tokenize(text)
        assert abs(log_perplexity(text, model)
                   - token_nll_recount(model, ids)) < 1e-9


def test_log_perplexity_needs_two_tokens(model):
    with pytest.raises(UsageError):
        log_perplexity("great", model)
    with pytest.raises(UsageError):
        log_perplexity("", model)


def test_prompt_perplexity_is_exp(model):
    text = "the movie was great"
    assert prompt_perplexity(text, model) == \
        pytest.approx(math.exp(log_perplexity(text, model)), rel=1e-12)


# -- dist1 -------------------------------------------------------------------------

def test_dist1_fixtures():
    assert dist1(["a b", "a c"]) == 0.75
    assert dist1(["a a", "a a"]) == 0.25
    assert dist1(["x"]) == 1.0
    assert dist1(["the the the"]) == pytest.approx(1.0 / 3.0)
    assert dist1(["a b c", "d e f"]) == 1.0


def test_dist1_identical_prompts_collapse():
    assert dist1(["good movie"] * 5) == pytest.approx(2.0 / 10.0)


def test_dist1_validation():
    with pytest.raises(UsageError):
        dist1([])
    with pytest.raises(UsageError):
        dist1(["a", "   "])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6)
                .map(" ".join), min_size=1, max_size=8))
def test_dist1_bounds_property(prompts):
    val = dist1(prompts)
    total = sum(len(p.split()) for p in prompts)
    assert 0.0 < val <= 1.0
    assert val >= 1.0 / total
