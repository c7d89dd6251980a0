"""The built-in separable two-label task and its dataset generator."""

import numpy as np

from promptsearch.synthetic import POOL_A, POOL_B, synthetic_dataset, synthetic_task
from promptsearch.tasks import verbalizer_token_ids


def test_pools_are_disjoint_ten_word_sets():
    assert len(POOL_A) == len(POOL_B) == 10
    assert not set(POOL_A) & set(POOL_B)


def test_task_validates_on_reference_model(model):
    task = synthetic_task()
    assert len(verbalizer_token_ids(task, model)) == 2
    assert task.labels == ("good", "bad")


def test_all_pool_words_in_reference_vocab(model):
    for w in POOL_A + POOL_B:
        ids = model.tokenize(w)
        assert len(ids) == 1 and ids[0] != model.unk_id, w


def test_dataset_alternates_balanced_labels():
    data = synthetic_dataset(10, seed=0)
    assert [ex.label for ex in data] == ["good", "bad"] * 5
    for ex in data:
        pool = POOL_A if ex.label == "good" else POOL_B
        assert set(ex.text.split()) <= set(pool)


def test_dataset_lengths_and_determinism():
    a = synthetic_dataset(8, seed=3, length=4)
    b = synthetic_dataset(8, seed=3, length=4)
    c = synthetic_dataset(8, seed=4, length=4)
    assert a == b and a != c
    assert all(len(ex.text.split()) == 4 for ex in a)


def test_dataset_words_vary_within_pool():
    data = synthetic_dataset(40, seed=1)
    good_words = set()
    for ex in data:
        if ex.label == "good":
            good_words |= set(ex.text.split())
    assert len(good_words) > 5  # draws actually spread over the pool


def test_dataset_separability_in_token_space(model):
    """Disjoint pools mean no token overlap between the two label classes."""
    data = synthetic_dataset(30, seed=2)
    ids_good = {i for ex in data if ex.label == "good"
                for i in model.tokenize(ex.text)}
    ids_bad = {i for ex in data if ex.label == "bad"
               for i in model.tokenize(ex.text)}
    assert not ids_good & ids_bad


def test_dataset_draws_iid_with_replacement():
    rng_texts = [ex.text for ex in synthetic_dataset(200, seed=5, length=6)]
    assert any(len(set(t.split())) < 6 for t in rng_texts)  # repeats occur
