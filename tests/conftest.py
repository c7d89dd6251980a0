"""Shared fixtures: the reference model, small tasks/datasets, stub adapters."""

from __future__ import annotations

import numpy as np
import pytest

from promptsearch.errors import ModelFault
from promptsearch.model import EmbeddingTable, ForwardPass, make_reference_model
from promptsearch.synthetic import synthetic_dataset, synthetic_task
from promptsearch.tasks import Example, TaskSpec


@pytest.fixture(scope="session")
def model():
    return make_reference_model(0)


@pytest.fixture(scope="session")
def task():
    return synthetic_task()


@pytest.fixture(scope="session")
def small_data():
    return synthetic_dataset(24, seed=5)


class FixedHeadModel:
    """Adapter stub whose next-token logits are constant, chosen per call.

    ``logit_for`` maps a body length (number of non-prompt tokens) to a
    length-V logit row; unknown lengths fall back to the default row.  The
    hidden states are zeros.  This gives tests exact control over the label
    distribution the package reads off the final position.
    """

    def __init__(self, vocab, default_row, by_body_len=None, dim=4, seed=0):
        self.token_text = tuple(vocab)
        self.vocab_size = len(self.token_text)
        self._index = {t: i for i, t in enumerate(self.token_text)}
        self.dim = dim
        self.max_len = 64
        self.unk_id = self._index.get("<unk>")
        self.special_token_ids = frozenset(
            i for i, t in enumerate(self.token_text) if t.startswith("<")
        )
        rng = np.random.default_rng(seed)
        self._E = rng.normal(size=(self.vocab_size, dim))
        self._table = EmbeddingTable(entries=self._E, token_text=self.token_text)
        self.default_row = np.asarray(default_row, dtype=float)
        self.by_body_len = {k: np.asarray(v, dtype=float)
                            for k, v in (by_body_len or {}).items()}
        self.prompt_rows = 0  # set by tests that prepend prompts

    def tokenize(self, text):
        return [self._index.get(w, self.unk_id) for w in text.lower().split()]

    def decode(self, ids):
        return " ".join(self.token_text[i] for i in ids)

    def embedding_table(self):
        return self._table

    def forward(self, X):
        L = X.shape[0]
        body_len = L - self.prompt_rows
        row = self.by_body_len.get(body_len, self.default_row)
        logits = np.tile(row, (L, 1))
        return ForwardPass(hidden=np.zeros((L, self.dim)), logits=logits,
                           cache={"L": L})

    def backward_input(self, cache, d_hidden=None, d_logits=None):
        return np.zeros((cache["L"], self.dim))


class CountingModel:
    """Adapter wrapper that counts ``forward`` and ``backward_input`` calls.

    Everything else is delegated to the wrapped adapter.  With
    ``fail_on_forward=k`` the k-th ``forward`` call (1-based) raises
    ``ModelFault`` instead of running.
    """

    def __init__(self, inner, fail_on_forward=None):
        self._inner = inner
        self.fail_on_forward = fail_on_forward
        self.forwards = 0
        self.backwards = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def forward(self, X):
        self.forwards += 1
        if self.forwards == self.fail_on_forward:
            raise ModelFault("model produced non-finite logits")
        return self._inner.forward(X)

    def backward_input(self, cache, d_hidden=None, d_logits=None):
        self.backwards += 1
        return self._inner.backward_input(cache, d_hidden=d_hidden,
                                          d_logits=d_logits)


@pytest.fixture
def stub_vocab():
    return ("<pad>", "<unk>", "yes", "no", "maybe", "so", "the", "it", "was")


@pytest.fixture
def stub_task():
    return TaskSpec(
        id="stub",
        template="{x} it was",
        verbalizer={"pos": "yes", "neg": "no"},
        domain_string="the maybe",
        domain_words=("maybe",),
    )


def stub_model_with_label_probs(stub_vocab, probs, by_body_len_probs=None):
    """FixedHeadModel whose restricted softmax over (yes, no) equals ``probs``.

    Label words "yes" and "no" sit at vocabulary ids 2 and 3; all other
    logits are strongly negative so full-vocabulary softmaxes also put almost
    all mass on the label words.
    """
    def row_for(p):
        row = np.full(len(stub_vocab), -40.0)
        row[2] = np.log(p[0])
        row[3] = np.log(p[1])
        return row

    by_len = None
    if by_body_len_probs:
        by_len = {k: row_for(p) for k, p in by_body_len_probs.items()}
    return FixedHeadModel(stub_vocab, row_for(probs), by_len)


@pytest.fixture
def make_stub(stub_vocab):
    def factory(probs, by_body_len_probs=None):
        return stub_model_with_label_probs(stub_vocab, probs, by_body_len_probs)
    return factory


@pytest.fixture
def toy_examples():
    return [Example("the so", "pos"), Example("so the maybe", "neg")]
