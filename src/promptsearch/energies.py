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
the gradients w.r.t. the prompt's cached keys and values, one array with a
member axis, and one over the prompt's pass with those added (exact by
linearity), one member per example, summed in batch order.
Other adapters (wrappers overriding ``forward(self, X)``, registered
adapters) run one full pass over ``prompt + render(task, text)`` per
example instead.  Either way the readouts see one array of rows: rows
``m-1 .. L-1`` of each example's pass, in batch order, so they never loop
over length groups; grouping by length lives only inside the stacked pass,
and the values of both paths agree bitwise.  The prompt fluency reads rows
``0 .. m-2``, the causal prefix shared by every example, once per batch; on
the stacked path row ``m-1``, which predicts each body's first token, is
the prompt pass's last row too.  ``task_nll`` and ``entropy_loss`` read the
verbalizer-restricted softmax at each example's last row (the label row),
and ``domain_nll`` a row-wise log-softmax over every other row, with the
rows of the whole batch in one call.  When ``domain_nll`` is not weighted,
nothing reads the other body rows, so the stacks run the model's top layer
on the label rows only (``forward(..., last_only=True)``).  A combined
energy sums the weighted hidden-state gradients of its terms into the same
backwards and adds the direct fluency gradient once.  ``fluency_nll`` is the
same shared pass with no batch: the prompt's own pass and one backward over
it, for a one-row prompt too.

A supervised chain scores each example once per prompt.  ``run_chain``
hands every example a private memo of its chain (``_ChainMemo``), valid for
one prompt's token ids, model, task, term weights and batch size.  When
only ``task`` and ``fluency`` are weighted, an example's label row and its
key/value gradient depend on nothing else, so the memo keeps both per
example, and the prompt's own pass.  A step reads the examples the memo
holds from it and runs stacks of only the others, storing them.  A member's
backward has the same bits in any stack, and the prompt's pass sums one
key/value gradient per example in batch order, so every step has every bit
of a memo-free one, on batches of any lengths.  The memo never serves adapters
that do not extend passes, unprojected prompts, calls without a gradient,
or ``entropy`` and ``domain``: the entropy gradient of an example depends
on the batch mean.

Sign convention for the unsupervised combination: the ``intent`` mode (the
default) minimizes ``lambda_calibration * (-H(p_mean)) + lambda_domain *
domain_nll``, i.e. it pushes the group-level label distribution toward
uniform while keeping the prompt domain-related.  The ``literal`` mode negates
both weights; it is exposed for analysis because it drives the search to the
opposite, degenerate extreme (a peaked group distribution and an unrelated
prompt).  Records and reports carry the sign used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, UsageError
from .model import (
    SoftPrompt,
    _by_length,
    _extends,
    _input_matrix,
    _restricted_softmax,
)
from .model import _logsumexp as logsumexp
from .tasks import (Example, TaskSpec, _Rendered, _token_ids, render,
                    verbalizer_token_ids)

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
        for name in ("lambda_fluency", "lambda_domain", "lambda_task",
                     "lambda_calibration"):
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


def _rendered(examples, task: TaskSpec, model, memo=None) -> list[_Rendered]:
    """``examples`` rendered once, each at its position as ``slot`` and
    carrying ``memo``; an example rendered earlier keeps its ids."""
    return [_Rendered(ex.text, ex.label, ex.ids if isinstance(ex, _Rendered)
                      else tuple(render(task, ex.text, model)), slot, memo)
            for slot, ex in enumerate(examples)]


# A chain memo holds at most this many examples, so a large training set
# pays at most the memory of this many (about 8 KB each at M=10 on the
# reference model).
_MEMO_EXAMPLES = 2048


class _ChainMemo:
    """What one chain's supervised steps computed under its current prompt.

    Valid for one key: the prompt's token ids, the model, the task, the term
    weights and the batch size; any change to one of them empties it.  It
    holds the prompt's own pass and, per example slot with a non-empty body,
    the label-row logits and the gradients w.r.t. the prompt pass's keys and
    values, one contiguous ``(n_layers, 2, H, m, dh)`` array: a copy of the
    example's slice of its stack's gradients.  These depend on nothing else
    when only ``task`` and ``fluency`` are weighted, so a step's stacks run
    only the examples the memo lacks.
    """

    def __init__(self):
        self.key = None
        self.head = None
        self.entries = {}  # slot -> (label-row logits, key/value gradients)


def _chain_memo(prompt: SoftPrompt, batch, task, model, weights, grad: bool):
    """The memo ``batch``'s examples carry (a chain's examples all carry its
    one memo), emptied unless its key is this evaluation's; None where a
    memo cannot serve.  It never serves an
    adapter that does not extend passes, an unprojected prompt, a call
    without a gradient, or the ``entropy`` and ``domain`` terms, whose
    per-example gradient depends on the rest of the batch."""
    memo = getattr(batch[0], "memo", None) if batch else None
    if (memo is None or not grad or prompt.token_ids is None or not _extends(model)
            or weights.keys() - {"task", "fluency"}):
        return None
    key = (prompt.token_ids, model, task, tuple(weights.items()), len(batch))
    if memo.key != key:
        memo.key, memo.head, memo.entries = key, None, {}
    return memo


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
    """Fluency NLLs at positions ``0 .. m-2`` of a pass (none for ``m == 1``).

    Returns the per-position terms, their gradient w.r.t. ``hidden[:m-1]``,
    and the direct gradient w.r.t. the prompt rows they predict.
    """
    k = prompt.length - 1
    rows, targets = fw.logits[:k], prompt.entries[1:]
    lse = logsumexp(rows)
    terms = lse - np.einsum("id,id->i", fw.hidden[:k], targets)
    direct = np.zeros_like(prompt.entries)
    direct[1:] = -fw.hidden[:k]
    return terms, np.exp(rows - lse[:, None]) @ table - targets, direct


def _stacked_passes(prompt: SoftPrompt, seqs, model, label_only: bool = False,
                    memo: _ChainMemo | None = None, slots=()):
    """The prompt's own pass, then one stacked extension per body length of
    the examples a memo does not hold.

    Returns ``(head, rows, backward)``.  ``head`` is a pass whose first ``m``
    rows are the prompt's.  ``rows`` holds, in batch order, the logits of
    rows ``m-1 .. L-1`` of each example's pass: ``len(seq) + 1`` rows, of
    which the first predicts the first body token and the last is the label
    row (for an empty body, both are the prompt's last row).  With
    ``label_only`` the stacks run their top layer on the label rows only,
    and every other body row of ``rows`` is NaN.
    ``backward(d_head, d_rows)`` takes gradients w.r.t. ``head``'s first
    ``m`` hidden rows and w.r.t. the hidden rows behind ``rows``, and returns
    the gradient w.r.t. the prompt rows.  Grouping by length happens only
    here: each stack's logits are scattered into ``rows`` and its slice of
    ``d_rows`` is gathered back.

    ``backward`` takes one key/value gradient per example with a non-empty
    body, its member slice of its stack's, and the prompt's pass sums them
    in batch order.  With a ``memo`` (``label_only``, and ``slots`` giving
    each example's slot), the prompt's pass is the memo's when it holds one,
    and an example the memo holds takes its label row and key/value gradient
    from it; the stacks run only the others and store them.  A member's
    backward has the same bits in any stack, so a held example gives the
    bits of a fresh one.
    """
    table = model.embedding_table().entries
    m = prompt.length
    head = memo.head if memo is not None else None
    if head is None:
        head = model.forward(prompt.entries)
    lens = np.array([len(seq) for seq in seqs], dtype=np.intp)
    firsts = np.cumsum(lens) - lens + np.arange(len(seqs))
    rows = np.full((len(seqs) + lens.sum(), head.logits.shape[-1]), np.nan)
    rows[firsts] = head.logits[m - 1]
    # batch index -> the (label-row logits, key/value gradients) the memo holds
    held = {} if memo is None else {i: memo.entries[slot] for i, slot in enumerate(slots)
                                    if lens[i] and slot in memo.entries}
    for i, (logits, _) in held.items():
        rows[firsts[i] + lens[i]] = logits
    stacks = []
    for idx in _by_length(seqs):
        idx = [i for i in idx if lens[i] and i not in held]
        if idx:
            n = lens[idx[0]]
            at = firsts[idx, None] + np.arange(n if label_only else 1, n + 1)
            fw = model.forward(table[np.array([seqs[i] for i in idx])], past=head.cache,
                               last_only=label_only)
            rows[at] = fw.logits
            stacks.append((idx, fw, at))
    if memo is not None:
        memo.head = head

    def backward(d_head, d_rows):
        d_head = d_head.copy()
        d_head[m - 1] += d_rows[firsts].sum(axis=0)
        d_kv = {i: d for i, (_, d) in held.items()}
        for idx, fw, at in stacks:
            _, members = model.backward_input(fw.cache, d_hidden=d_rows[at])
            for j, i in enumerate(idx):
                d_kv[i] = members[:, :, j]
                if memo is not None and len(memo.entries) < _MEMO_EXAMPLES:
                    # copies, so no entry keeps its whole stack alive
                    memo.entries[slots[i]] = (fw.logits[j, -1].copy(), d_kv[i].copy())
        # the head sums one member per example, in batch order
        d_past = np.stack([d_kv[i] for i in sorted(d_kv)], axis=2) if d_kv else None
        return model.backward_input(head.cache, d_hidden=d_head, d_past=d_past)

    return head, rows, backward


def _full_passes(prompt: SoftPrompt, seqs, model):
    """One full pass over ``prompt + body`` per example, for adapters that do
    not extend passes; same contract as :func:`_stacked_passes` without
    ``label_only`` (every row is filled), with the first example's pass as
    ``head`` (the prompt's own pass without examples)."""
    m = prompt.length
    fws = [model.forward(_input_matrix(prompt, seq, model)) for seq in seqs]
    head = fws[0] if fws else model.forward(prompt.entries)
    rows = np.concatenate([head.logits[:0], *(fw.logits[m - 1:] for fw in fws)])

    def backward(d_head, d_rows):
        total, start = np.zeros_like(prompt.entries), 0
        for fw in fws or [head]:
            d_hidden = np.zeros_like(fw.hidden)
            block = d_rows[start:start + len(fw.hidden) - m + 1]  # none without examples
            d_hidden[m - 1:m - 1 + len(block)] = block
            start += len(block)
            if fw is head:
                d_hidden[:m] += d_head
            total += model.backward_input(fw.cache, d_hidden=d_hidden)[:m]
        return total

    return head, rows, backward


def _token_readout(rows: np.ndarray, targets: np.ndarray, table: np.ndarray):
    """NLLs of the tokens ``targets``, one per logit row of ``rows``, and their
    gradient w.r.t. the hidden rows behind ``rows``."""
    lse = logsumexp(rows)
    at = (np.arange(rows.shape[0]), targets)
    terms = lse - rows[at]
    p = np.exp(rows - lse[:, None])
    p[at] -= 1.0
    return terms, p @ table


def _shared_pass(prompt: SoftPrompt, batch: list[Example], task: TaskSpec, model,
                 weights: dict[str, float], grad: bool):
    """Raw values of the terms named in ``weights``, from one set of passes.

    Returns ``(values, gradient)``, where ``gradient`` is that of
    ``sum(weights[t] * values[t])`` with ``grad`` and None without.
    """
    if weights.keys() - {"fluency"}:
        _check_batch(batch, task, need_labels="task" in weights)
    table = model.embedding_table().entries
    m, b = prompt.length, len(batch)
    w = {t: weights.get(t, 0.0) for t in ("task", "fluency", "entropy", "domain")}
    seqs = [_token_ids(task, ex, model) for ex in batch]
    memo = _chain_memo(prompt, batch, task, model, weights, grad)
    if _extends(model):  # only domain_nll reads rows other than the label rows
        head, rows, backward = _stacked_passes(
            prompt, seqs, model, label_only="domain" not in weights, memo=memo,
            slots=[ex.slot for ex in batch] if memo is not None else ())
    else:
        head, rows, backward = _full_passes(prompt, seqs, model)
    lens = np.array([len(seq) for seq in seqs], dtype=np.intp)
    label_at = np.cumsum(lens) + np.arange(b)
    d_head = np.zeros_like(prompt.entries)
    d_rows = np.zeros((rows.shape[0], prompt.dim))

    values = {}
    prefix_terms, direct = np.zeros(0), np.zeros_like(prompt.entries)
    if "fluency" in weights or "domain" in weights:
        prefix_terms, d_prefix, direct = _prefix_readout(prompt, head, table)
        d_head[:m - 1] = (w["fluency"] + w["domain"]) * d_prefix
    if "fluency" in weights:
        values["fluency"] = math.fsum(prefix_terms)
    if "task" in weights or "entropy" in weights:
        vids = verbalizer_token_ids(task, model)
        label_rows = table[vids]
        probs = _restricted_softmax(rows[label_at], vids)
    if "task" in weights:
        gold = (np.arange(b), [task.labels.index(ex.label) for ex in batch])
        values["task"] = math.fsum(-math.log(p) for p in probs[gold]) / b
        d_label = probs.copy()
        d_label[gold] -= 1.0
        d_rows[label_at] += (w["task"] / b) * (d_label @ label_rows)
    if "entropy" in weights:
        pbar = np.array([math.fsum(col) / b for col in probs.T])
        values["entropy"] = math.fsum(float(py * math.log(py))
                                      for py in pbar if py > 0.0)
        if grad:
            # d value / d logit_y' through each example's restricted softmax
            log_pbar = np.log(pbar)
            coeff = probs * (log_pbar - (probs @ log_pbar)[:, None]) / b
            d_rows[label_at] += w["entropy"] * (coeff @ label_rows)
    if "domain" in weights:
        tokens = np.ones(rows.shape[0], dtype=bool)
        tokens[label_at] = False
        targets = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.intp)
        tok_terms, d_tok = _token_readout(rows[tokens], targets, table)
        d_rows[tokens] += (w["domain"] / b) * d_tok
        values["domain"] = math.fsum(
            math.fsum(np.concatenate([prefix_terms, tok_terms[end - n:end]]))
            for n, end in zip(lens, np.cumsum(lens))) / b
    if not grad:
        return values, None
    return values, (w["fluency"] + w["domain"]) * direct + backward(d_head, d_rows)


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
    return _term(prompt, [], None, model, "fluency", grad)


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
