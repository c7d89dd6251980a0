"""Scalar energy functions driving the prompt sampler (lower is better).

Supervised search minimizes a weighted sum of the task negative log-likelihood
and an embedding-based prompt fluency NLL.  Unsupervised search minimizes a
weighted sum of a group-calibration term (the negative entropy of the
batch-mean label distribution) and a domain-relevance NLL (prompt fluency
plus the prompt-conditioned NLL of the task inputs and template).

Every energy is differentiable w.r.t. the prompt rows; pass ``grad=True`` to
also get the ``(M, d)`` gradient.  Batch reduction is the arithmetic mean,
accumulated with compensated summation so values are invariant under batch
permutation.

One pass per example: each example gets one ``model.forward`` on ``prompt +
render(task, text)`` and, for gradients, one ``model.backward_input``.
``task_nll`` and ``entropy_loss`` read the verbalizer-restricted softmax at
the last position; ``domain_nll`` reads a row-wise log-softmax over the body
positions ``m-1 .. L-2``; the prompt fluency reads the causal prefix
``0 .. m-2``, which is the same in every example and so is read once per
batch.  A combined energy sums the weighted hidden-state gradients of its
terms into the one backward (exact by linearity) and adds the direct fluency
gradient once.  ``fluency_nll`` alone runs one pass over the prompt rows.

Sign convention for the unsupervised combination: the ``intent`` mode (the
default) minimizes ``lambda_calibration * (-H(p_mean)) + lambda_domain *
domain_nll``, i.e. it pushes the group-level label distribution toward
uniform while keeping the prompt domain-related.  The ``literal`` mode negates
both weights; it is exposed for analysis because it drives the search to the
opposite, degenerate extreme (a peaked group distribution and an unrelated
prompt).  Records and reports carry the sign used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigurationError, DataError, UsageError
from .model import SoftPrompt
from .tasks import Example, TaskSpec, render, verbalizer_token_ids

__all__ = [
    "EnergyConfig",
    "EnergyBreakdown",
    "term_weights",
    "task_nll",
    "fluency_nll",
    "supervised_energy",
    "entropy_loss",
    "domain_nll",
    "unsupervised_energy",
    "energy_and_grad",
]

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class EnergyConfig:
    """Which energy is minimized, and with what weights.

    In supervised mode ``lambda_task + lambda_fluency`` must equal 1; in
    unsupervised mode ``lambda_calibration + lambda_domain`` must equal 1.
    """

    mode: str  # "supervised" | "unsupervised"
    lambda_task: float = 0.0
    lambda_fluency: float = 0.0
    lambda_calibration: float = 0.0
    lambda_domain: float = 0.0
    sign: str = "intent"  # unsupervised only: "intent" | "literal"

    def __post_init__(self):
        if self.mode not in ("supervised", "unsupervised"):
            raise ConfigurationError(f"unknown energy mode {self.mode!r}")
        if self.sign not in ("intent", "literal"):
            raise ConfigurationError(f"unknown energy sign {self.sign!r}")
        for name in ("lambda_task", "lambda_fluency", "lambda_calibration",
                     "lambda_domain"):
            w = getattr(self, name)
            if not 0.0 <= w <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {w}")
        if self.mode == "supervised":
            if abs(self.lambda_task + self.lambda_fluency - 1.0) > _WEIGHT_TOL:
                raise ConfigurationError("lambda_task + lambda_fluency must equal 1")
        else:
            if abs(self.lambda_calibration + self.lambda_domain - 1.0) > _WEIGHT_TOL:
                raise ConfigurationError(
                    "lambda_calibration + lambda_domain must equal 1"
                )

    @classmethod
    def supervised(cls, lambda_fluency: float = 0.003) -> "EnergyConfig":
        return cls(mode="supervised", lambda_task=1.0 - lambda_fluency,
                   lambda_fluency=lambda_fluency)

    @classmethod
    def unsupervised(cls, lambda_domain: float = 0.003,
                     sign: str = "intent") -> "EnergyConfig":
        return cls(mode="unsupervised", lambda_calibration=1.0 - lambda_domain,
                   lambda_domain=lambda_domain, sign=sign)


@dataclass(frozen=True)
class EnergyBreakdown:
    """One energy evaluation: the minimized total plus its raw terms."""

    total: float
    per_term: dict[str, float] = field(default_factory=dict)


def term_weights(cfg: EnergyConfig) -> dict[str, float]:
    """Signed weight applied to each raw term when forming the total."""
    if cfg.mode == "supervised":
        return {"task": cfg.lambda_task, "fluency": cfg.lambda_fluency}
    s = 1.0 if cfg.sign == "intent" else -1.0
    return {"entropy": s * cfg.lambda_calibration, "domain": s * cfg.lambda_domain}


def _check_batch(batch, task: TaskSpec, need_labels: bool):
    if not batch:
        raise UsageError("batch must be nonempty")
    if need_labels:
        for ex in batch:
            if ex.label is None:
                raise DataError(f"unlabeled example in labeled batch: {ex.text!r}")
            if ex.label not in task.labels:
                raise DataError(
                    f"label {ex.label!r} outside task labels {list(task.labels)}"
                )


def _prefix_readout(prompt: SoftPrompt, fw, table: np.ndarray):
    """Fluency NLLs at positions ``0 .. m-2`` of a pass (needs ``m >= 2``).

    Returns the per-position terms, their gradient w.r.t. ``hidden[:m-1]``,
    and the direct gradient w.r.t. the prompt rows they predict.
    """
    k = prompt.length - 1
    rows, targets = fw.logits[:k], prompt.entries[1:]
    lse = logsumexp(rows, axis=-1)
    terms = lse - np.einsum("id,id->i", fw.hidden[:k], targets)
    direct = np.zeros_like(prompt.entries)
    direct[1:] = -fw.hidden[:k]
    return terms, np.exp(rows - lse[:, None]) @ table - targets, direct


def _token_readout(fw, seq: list[int], table: np.ndarray):
    """NLLs of the last ``len(seq)`` tokens of a pass, and their gradient
    w.r.t. the hidden rows that predict them."""
    rows = fw.logits[-len(seq) - 1:-1]
    lse = logsumexp(rows, axis=-1)
    at = (np.arange(len(seq)), seq)
    p = np.exp(rows - lse[:, None])
    p[at] -= 1.0
    return lse - rows[at], p @ table


def _shared_pass(prompt: SoftPrompt, batch: list[Example], task: TaskSpec, model,
                 weights: dict[str, float], grad: bool):
    """Raw values of the terms named in ``weights``, from one pass per example.

    Returns ``(values, gradient)``, where ``gradient`` is that of
    ``sum(weights[t] * values[t])`` with ``grad`` and None without.
    """
    _check_batch(batch, task, need_labels="task" in weights)
    table = model.embedding_table().entries
    m, b = prompt.length, len(batch)
    w = {t: weights.get(t, 0.0) for t in ("task", "fluency", "entropy", "domain")}
    read_labels = "task" in weights or "entropy" in weights
    if read_labels:
        vids = verbalizer_token_ids(task, model)
        label_rows = table[vids]
    read_prefix = m > 1 and ("fluency" in weights or "domain" in weights)
    prefix_terms, direct = np.zeros(0), np.zeros_like(prompt.entries)

    passes, probs, task_terms, domain_terms = [], [], [], []
    for ex in batch:
        seq = render(task, ex.text, model)
        fw = model.forward(np.concatenate([prompt.entries, table[seq]], axis=0))
        d_hidden = np.zeros_like(fw.hidden)
        if read_prefix and not passes:  # the causal prefix: once per batch
            prefix_terms, d_prefix, direct = _prefix_readout(prompt, fw, table)
            d_hidden[:m - 1] += (w["fluency"] + w["domain"]) * d_prefix
        if read_labels:
            logits_y = fw.logits[-1, vids]
            e = np.exp(logits_y - logits_y.max())
            probs.append(e / e.sum())
        if "task" in weights:
            yi = task.labels.index(ex.label)
            task_terms.append(-math.log(probs[-1][yi]))
            d_label = probs[-1].copy()
            d_label[yi] -= 1.0
            d_hidden[-1] += (w["task"] / b) * (d_label @ label_rows)
        if "domain" in weights:
            tok_terms = np.zeros(0)
            if seq:
                tok_terms, d_tok = _token_readout(fw, seq, table)
                d_hidden[m - 1:-1] += (w["domain"] / b) * d_tok
            domain_terms.append(math.fsum(np.concatenate([prefix_terms, tok_terms])))
        passes.append((fw, d_hidden))

    values = {}
    if "task" in weights:
        values["task"] = math.fsum(task_terms) / b
    if "fluency" in weights:
        values["fluency"] = math.fsum(prefix_terms)
    if "entropy" in weights:
        pbar = np.array([math.fsum(p[y] for p in probs) / b
                         for y in range(len(vids))])
        values["entropy"] = math.fsum(float(py * math.log(py))
                                      for py in pbar if py > 0.0)
        if grad:
            # d value / d logit_y' through each example's restricted softmax
            log_pbar = np.log(pbar)
            for (_, d_hidden), p in zip(passes, probs):
                coeff = p * (log_pbar - float(p @ log_pbar)) / b
                d_hidden[-1] += w["entropy"] * (coeff @ label_rows)
    if "domain" in weights:
        values["domain"] = math.fsum(domain_terms) / b
    if not grad:
        return values, None
    total_grad = (w["fluency"] + w["domain"]) * direct
    for fw, d_hidden in passes:
        total_grad += model.backward_input(fw.cache, d_hidden=d_hidden)[:m]
    return values, total_grad


def _term(prompt, batch, task, model, term: str, grad: bool):
    values, g = _shared_pass(prompt, batch, task, model, {term: 1.0}, grad)
    return (values[term], g) if grad else values[term]


def _combined(prompt, batch, task, model, cfg: EnergyConfig, grad: bool):
    weights = term_weights(cfg)
    values, g = _shared_pass(prompt, batch, task, model, weights, grad)
    breakdown = EnergyBreakdown(total=sum(weights[t] * values[t] for t in weights),
                                per_term=values)
    return (breakdown, g) if grad else breakdown


def task_nll(prompt: SoftPrompt, batch: list[Example], task: TaskSpec, model,
             *, grad: bool = False):
    """Mean NLL of the gold label word under the restricted label softmax."""
    return _term(prompt, batch, task, model, "task", grad)


def fluency_nll(prompt: SoftPrompt, model, *, grad: bool = False):
    """Embedding-based sequence NLL of the prompt itself.

    Position ``m`` (for ``m >= 1``) contributes
    ``-log softmax_over_table(h[m-1] . prompt[m])`` where the softmax
    normalizer runs over the full embedding table; the first position
    contributes nothing, so a length-1 prompt scores exactly 0.  Nonnegative
    whenever every prompt row is a table row (the numerator is then one of
    the normalizer's terms); unprojected rows can score below zero.
    """
    m = prompt.length
    if m == 1:
        return (0.0, np.zeros_like(prompt.entries)) if grad else 0.0
    fw = model.forward(prompt.entries)
    terms, d_prefix, direct = _prefix_readout(prompt, fw,
                                              model.embedding_table().entries)
    value = math.fsum(terms)
    if not grad:
        return value
    d_hidden = np.zeros_like(fw.hidden)
    d_hidden[:m - 1] = d_prefix
    return value, model.backward_input(fw.cache, d_hidden=d_hidden) + direct


def supervised_energy(prompt: SoftPrompt, batch: list[Example], task: TaskSpec,
                      model, cfg: EnergyConfig, *, grad: bool = False):
    """Weighted combination ``lambda_task * task_nll + lambda_fluency * fluency_nll``."""
    if cfg.mode != "supervised":
        raise ConfigurationError(f"supervised_energy called with mode {cfg.mode!r}")
    return _combined(prompt, batch, task, model, cfg, grad)


def entropy_loss(prompt: SoftPrompt, batch: list[Example], task: TaskSpec, model,
                 *, grad: bool = False):
    """Negative entropy of the batch-mean label distribution.

    The mean is taken first (one distribution for the whole batch), then the
    negative entropy ``sum_y p_mean(y) log p_mean(y)``; the value lies in
    ``[-ln |Y|, 0]``, hitting the lower end iff the mean is uniform and 0 iff
    it is one-hot.  Labels on the examples, if any, are ignored.
    """
    return _term(prompt, batch, task, model, "entropy", grad)


def domain_nll(prompt: SoftPrompt, batch: list[Example], task: TaskSpec, model,
               *, grad: bool = False):
    """Prompt fluency plus prompt-conditioned NLL of input and template tokens.

    Per example this sums three causal segments over one forward pass:
    the embedding-based prompt NLL, ``-sum_i log p(x_i | prompt, x_<i)``, and
    ``-sum_j log p(t_j | prompt, x, t_<j)`` (full-vocabulary softmaxes for the
    token segments).  The batch value is the mean.  With an empty input and
    an empty cue it degenerates to exactly ``fluency_nll``.
    """
    return _term(prompt, batch, task, model, "domain", grad)


def unsupervised_energy(prompt: SoftPrompt, batch: list[Example], task: TaskSpec,
                        model, cfg: EnergyConfig, *, grad: bool = False):
    """Weighted combination of the calibration and domain-relevance terms.

    The signed weights come from :func:`term_weights` (see the module
    docstring for the ``intent`` / ``literal`` modes); the raw term values in
    the breakdown are unsigned either way.
    """
    if cfg.mode != "unsupervised":
        raise ConfigurationError(f"unsupervised_energy called with mode {cfg.mode!r}")
    return _combined(prompt, batch, task, model, cfg, grad)


def energy_and_grad(prompt: SoftPrompt, batch: list[Example], task: TaskSpec,
                    model, cfg: EnergyConfig):
    """Dispatch on ``cfg.mode``; returns ``(EnergyBreakdown, gradient)``."""
    if cfg.mode == "supervised":
        return supervised_energy(prompt, batch, task, model, cfg, grad=True)
    return unsupervised_energy(prompt, batch, task, model, cfg, grad=True)
