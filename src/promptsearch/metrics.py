"""Prompt evaluation metrics: accuracy, perplexity, unigram diversity."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import UsageError
from .model import SoftPrompt, _label_probs, as_soft_prompt
from .model import _logsumexp as logsumexp
from .tasks import Example, TaskSpec

__all__ = ["accuracy", "log_perplexity", "prompt_perplexity", "dist1"]


def accuracy(prompt: SoftPrompt | str | None, dataset: Sequence[Example],
             task: TaskSpec, model) -> float:
    """Fraction of examples whose restricted-softmax argmax hits the gold label.

    Argmax ties break toward the earliest label in the verbalizer order.
    ``prompt`` may be a soft prompt, a string (tokenized), or None (no
    prepended tokens).  Each example reads the same distribution as
    :func:`~promptsearch.model.label_word_distribution`, bit for bit.  On
    the reference model a prompt runs once and the rendered inputs are
    stacked by length, at most 128 positions per stack, the empty prompt's
    included; only adapters that do not extend passes run one full pass
    per example.
    """
    if not dataset:
        raise UsageError("accuracy needs a nonempty dataset")
    for ex in dataset:
        if ex.label is None:
            raise UsageError(f"unlabeled example in accuracy dataset: {ex.text!r}")
        if ex.label not in task.labels:
            raise UsageError(f"label {ex.label!r} outside task labels {list(task.labels)}")
    probs = _label_probs(as_soft_prompt(prompt, model), dataset, task, model)
    hits = sum(task.labels[y] == ex.label
               for y, ex in zip(np.argmax(probs, axis=1), dataset))
    return hits / len(dataset)


def log_perplexity(prompt_text: str, model) -> float:
    """Mean causal NLL (natural log) of tokens 2..L of the surface text.

    This scores the *token ids* of the text under the adapter's own
    next-token distribution; it is not the embedding-dot-product fluency
    energy, though the two coincide per token on adapters whose output layer
    ties to the embedding table.
    """
    ids = model.tokenize(prompt_text)
    if len(ids) < 2:
        raise UsageError(
            f"perplexity needs >= 2 tokens, got {len(ids)} from {prompt_text!r}"
        )
    table = model.embedding_table()
    rows = model.forward(table.entries[ids]).logits[:-1]
    nlls = logsumexp(rows) - rows[np.arange(len(rows)), ids[1:]]
    return math.fsum(nlls) / len(nlls)


def prompt_perplexity(prompt_text: str, model) -> float:
    """``exp`` of :func:`log_perplexity`; base e throughout."""
    return math.exp(log_perplexity(prompt_text, model))


def dist1(prompts: Sequence[str]) -> float:
    """Distinct whitespace unigrams across all prompts, over total unigrams."""
    if not prompts:
        raise UsageError("dist1 needs at least one prompt")
    tokens: list[str] = []
    for p in prompts:
        parts = p.split()
        if not parts:
            raise UsageError(f"prompt with no unigrams: {p!r}")
        tokens.extend(parts)
    return len(set(tokens)) / len(tokens)
