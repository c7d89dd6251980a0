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

Prompt once, bodies stacked: on an adapter that extends passes (the
reference model), each evaluation runs the prompt's own pass once, then one
stacked ``model.forward`` per distinct rendered body length, each stack
extending the prompt's pass (grouping by length needs no padding).  The
gradient takes one ``model.backward_input`` per stack, which also returns
the gradient w.r.t. the prompt's cached keys and values summed over the
stack, and one over the prompt's pass with those added (exact by
linearity).  Other adapters (wrappers overriding ``forward(self, X)``,
registered adapters) run one full pass over ``prompt + render(task, text)``
per example instead; both read the same rows with the same code, and the
values agree bitwise.  The prompt fluency reads rows ``0 .. m-2``, the
causal prefix shared by every example, once per batch; on the stacked path
row ``m-1``, which predicts each body's first token, is the prompt pass's
last row too.  ``task_nll`` and ``entropy_loss`` read the
verbalizer-restricted softmax at each example's last position, and
``domain_nll`` a row-wise log-softmax over positions ``m-1 .. L-2``, with
the rows of the whole batch in one call.  A combined energy sums the
weighted hidden-state gradients of its terms into the same backwards and
adds the direct fluency gradient once.  ``fluency_nll`` alone runs one pass
over the prompt rows.

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
from .model import (
    SoftPrompt,
    _by_length,
    _extends,
    _input_matrix,
    _restricted_softmax,
)
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


def _stacked_passes(prompt: SoftPrompt, seqs, model):
    """The prompt's own pass, then one stacked extension per body length.

    Returns ``(head, groups, backward)``.  ``head`` is a pass whose first
    ``m`` rows are the prompt's.  Each group is ``(indices, logits)``, with
    ``logits`` of shape ``(G, n + 1, V)``: rows ``m-1 .. L-1`` of each of its
    ``G`` examples, so row 0 predicts the first body token and the last row
    is the label row (for an empty body, both are the prompt's last row).
    ``backward(d_head, d_blocks)`` takes gradients w.r.t. ``head``'s first
    ``m`` hidden rows and, per group, w.r.t. those readout rows, and returns
    the gradient w.r.t. the prompt rows.
    """
    table = model.embedding_table().entries
    m = prompt.length
    head = model.forward(prompt.entries)
    last = head.logits[m - 1:]
    groups, stacks = [], []
    for idx in _by_length(seqs):
        logits = np.broadcast_to(last, (len(idx), *last.shape))
        fw = None
        if seqs[idx[0]]:
            fw = model.forward(table[np.array([seqs[i] for i in idx])], past=head.cache)
            logits = np.concatenate([logits, fw.logits], axis=1)
        groups.append((idx, logits))
        stacks.append(fw)

    def backward(d_head, d_blocks):
        d_head, d_past = d_head.copy(), None
        for fw, d_block in zip(stacks, d_blocks):
            d_head[m - 1] += d_block[:, 0].sum(axis=0)
            if fw is not None:
                _, d_kv = model.backward_input(fw.cache, d_hidden=d_block[:, 1:])
                d_past = d_kv if d_past is None else [
                    (dk + dk2, dv + dv2) for (dk, dv), (dk2, dv2) in zip(d_past, d_kv)]
        return model.backward_input(head.cache, d_hidden=d_head, d_past=d_past)

    return head, groups, backward


def _full_passes(prompt: SoftPrompt, seqs, model):
    """One full pass over ``prompt + body`` per example, for adapters that do
    not extend passes; same contract as :func:`_stacked_passes`, with the
    first example's pass as ``head``."""
    m = prompt.length
    fws = [model.forward(_input_matrix(prompt, seq, model)) for seq in seqs]
    groups = [(idx, np.stack([fws[i].logits[m - 1:] for i in idx]))
              for idx in _by_length(seqs)]

    def backward(d_head, d_blocks):
        rows = {}
        for (idx, _), d_block in zip(groups, d_blocks):
            rows.update(zip(idx, d_block))
        total = np.zeros_like(prompt.entries)
        for i, fw in enumerate(fws):
            d_hidden = np.zeros_like(fw.hidden)
            d_hidden[m - 1:] = rows[i]
            if i == 0:
                d_hidden[:m] += d_head
            total += model.backward_input(fw.cache, d_hidden=d_hidden)[:m]
        return total

    return fws[0], groups, backward


def _token_readout(groups, seqs: list[list[int]], table: np.ndarray):
    """NLLs of each example's body tokens, and their gradient w.r.t. the
    readout rows that predict them: per group, ``(G, n)`` and ``(G, n, d)``.

    The rows of the whole batch share one ``logsumexp`` call.
    """
    rows = np.concatenate([logits[:, :-1].reshape(-1, logits.shape[-1])
                           for _, logits in groups])
    targets = np.concatenate([np.array([seqs[i] for i in idx], dtype=np.intp).ravel()
                              for idx, _ in groups])
    lse = logsumexp(rows, axis=-1)
    at = (np.arange(rows.shape[0]), targets)
    terms = lse - rows[at]
    p = np.exp(rows - lse[:, None])
    p[at] -= 1.0
    d_rows = p @ table
    out, start = [], 0
    for idx, logits in groups:
        g, n = len(idx), logits.shape[1] - 1
        end = start + g * n
        out.append((terms[start:end].reshape(g, n),
                    d_rows[start:end].reshape(g, n, table.shape[1])))
        start = end
    return out


def _shared_pass(prompt: SoftPrompt, batch: list[Example], task: TaskSpec, model,
                 weights: dict[str, float], grad: bool):
    """Raw values of the terms named in ``weights``, from one set of passes.

    Returns ``(values, gradient)``, where ``gradient`` is that of
    ``sum(weights[t] * values[t])`` with ``grad`` and None without.
    """
    _check_batch(batch, task, need_labels="task" in weights)
    table = model.embedding_table().entries
    m, b = prompt.length, len(batch)
    w = {t: weights.get(t, 0.0) for t in ("task", "fluency", "entropy", "domain")}
    seqs = [render(task, ex.text, model) for ex in batch]
    run = _stacked_passes if _extends(model) else _full_passes
    head, groups, backward = run(prompt, seqs, model)
    d_head = np.zeros_like(prompt.entries)
    d_blocks = [np.zeros((*logits.shape[:2], prompt.dim)) for _, logits in groups]

    values = {}
    prefix_terms, direct = np.zeros(0), np.zeros_like(prompt.entries)
    if m > 1 and ("fluency" in weights or "domain" in weights):
        prefix_terms, d_prefix, direct = _prefix_readout(prompt, head, table)
        d_head[:m - 1] = (w["fluency"] + w["domain"]) * d_prefix
    if "fluency" in weights:
        values["fluency"] = math.fsum(prefix_terms)
    if "task" in weights or "entropy" in weights:
        vids = verbalizer_token_ids(task, model)
        label_rows = table[vids]
        probs = [_restricted_softmax(logits[:, -1], vids) for _, logits in groups]
    if "task" in weights:
        task_terms = []
        for (idx, _), p, d_block in zip(groups, probs, d_blocks):
            yi = [task.labels.index(batch[i].label) for i in idx]
            task_terms += [-math.log(p[g, y]) for g, y in enumerate(yi)]
            d_label = p.copy()
            d_label[np.arange(len(idx)), yi] -= 1.0
            d_block[:, -1] += (w["task"] / b) * (d_label @ label_rows)
        values["task"] = math.fsum(task_terms) / b
    if "entropy" in weights:
        pbar = np.array([math.fsum(col) / b for col in np.concatenate(probs).T])
        values["entropy"] = math.fsum(float(py * math.log(py))
                                      for py in pbar if py > 0.0)
        if grad:
            # d value / d logit_y' through each example's restricted softmax
            log_pbar = np.log(pbar)
            for p, d_block in zip(probs, d_blocks):
                coeff = p * (log_pbar - (p @ log_pbar)[:, None]) / b
                d_block[:, -1] += w["entropy"] * (coeff @ label_rows)
    if "domain" in weights:
        domain_terms = []
        for (tok_terms, d_tok), d_block in zip(_token_readout(groups, seqs, table),
                                               d_blocks):
            d_block[:, :-1] += (w["domain"] / b) * d_tok
            domain_terms += [math.fsum(np.concatenate([prefix_terms, t]))
                             for t in tok_terms]
        values["domain"] = math.fsum(domain_terms) / b
    if not grad:
        return values, None
    return values, (w["fluency"] + w["domain"]) * direct + backward(d_head, d_blocks)


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
    """``(EnergyBreakdown, gradient)`` of the energy ``cfg.mode`` names."""
    return _combined(prompt, batch, task, model, cfg, grad=True)
