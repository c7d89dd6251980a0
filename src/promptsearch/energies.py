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
extending the prompt's pass (grouping by length needs no padding).  Every
term reads per example what it needs: ``task_nll`` and ``entropy_loss`` the
logits of its last row (the label row) at the verbalizer ids, and
``domain_nll`` the NLL of each body token, by a row-wise log-softmax over
the rows before the label row (on the stacked path the first of them, which
predicts the first body token, is the prompt pass's last row).  The prompt
fluency reads rows ``0 .. m-2``, the causal prefix shared by every example,
once per batch.  When ``domain_nll`` is not weighted, nothing reads the
other body rows, so the stacks run the model's top layer on the label rows
only (``forward(..., last_only=True)``).

The gradient is formed per example, by linearity.  An example's label-row
gradient has two parts: its own, from ``task`` (``p - onehot``, which
depends on the example alone), and the batch's, from ``entropy``, whose
coefficients depend on the batch-mean label distribution.  The batch part
sums to zero over the label words, so it is ``sum_{y>=1} c_y (E[v_y] -
E[v_0])``.  Each stack takes one ``model.backward_input`` over its
right-hand sides, stacked on a leading axis: its members' own gradients
(with ``domain_nll``'s token-row gradients) and, when a chain memo serves
an ``entropy`` term, one direction ``E[v_y] - E[v_0]`` per label word after
the first, at every member's label row.  That returns, per member and
right-hand side, the gradient w.r.t. the prompt's cached keys and values;
a member's key/value gradient is its own one plus the directions' times its
coefficients ``c_y``.  Without a memo the batch part joins the own one, so
each stack takes one right-hand side.  The prompt's pass takes one backward
with those added (exact by linearity), one member per example, summed in
batch order.  Other adapters (wrappers overriding ``forward(self, X)``,
registered adapters) run one full pass over ``prompt + render(task, text)``
per example instead, and one backward per example over its summed row
gradients.  Both paths read the same rows, so their values agree bitwise.
A combined energy sums the weighted gradients of its terms into the same
backwards and adds the direct fluency gradient once.  ``fluency_nll`` is
the same shared pass with no batch: the prompt's own pass and one backward
over it, for a one-row prompt too.

A chain scores each example once per prompt.  ``run_chain`` hands every
example a private memo of its chain (``_ChainMemo``), valid for one prompt's
token ids, model, task, term weights and batch size.  It keeps the prompt's
own pass and fluency readout and, in arrays indexed by each example's slot
in the chain's data, what its stack gave it: its label logits, its token
terms and its key/value gradients per right-hand side.  None of these
depend on the rest of the batch, and only the coefficients that combine
them do, so the memo serves every energy.  A step gathers its batch from
those arrays with one index, after stacks of only the examples the memo
lacks have scattered theirs in.  A member's backward has the same bits in
any stack, and every evaluation under a memo combines the same per-example
arrays in the same way, so what the memo holds never changes a step's
bits, on batches of any lengths.  Supervised energies take one right-hand side with
or without a memo, so their steps also have every bit of memo-free
evaluation.  With ``entropy`` a missed example costs |Y| right-hand sides
instead of one, which pays only when examples come back under the same
prompt.  So the memo serves it only in a chain whose every example it can
hold, and from a prompt's second step on: a prompt's first step is scored
as without a memo, and most prompts of a chain's noisy early phase last
one step.  The memo never serves adapters that do not extend passes,
unprojected prompts or calls without a gradient.

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

from .errors import ConfigurationError, DataError, UsageError
from .model import (
    SoftPrompt,
    _by_length,
    _exact_matmul,
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
    carrying ``memo``, which learns how many slots there are; an example
    rendered earlier keeps its ids."""
    if memo is not None:
        memo.examples = len(examples)
    return [_Rendered(ex.text, ex.label, ex.ids if isinstance(ex, _Rendered)
                      else tuple(render(task, ex.text, model)), slot, memo)
            for slot, ex in enumerate(examples)]


# A chain memo holds at most this many floats (15.7 MB): about 2000
# supervised examples, or 2000 / |Y| unsupervised ones, at M=10 on the
# reference model.
_MEMO_FLOATS = 2048 * 960


class _ChainMemo:
    """What one chain's steps computed under its current prompt, by example slot.

    Valid for one key: the prompt's token ids, the model, the task, the term
    weights and the batch size; any change to one of them empties it.  It
    holds the prompt's own pass (``head``) and its fluency readout
    (``prefix``) and, in rows of arrays, what each example's stack gave it
    (see :func:`_stacked_passes`): its label logits at the verbalizer ids
    (``labels``, ``(rows, |Y|)``), its own gradient w.r.t. the prompt
    pass's last hidden row (``first``, ``(rows, d)``: the first token
    term's, weighted; zeros when ``domain`` is not weighted), its key/value
    gradients, one per right-hand side (``kv``, ``(rows, R, n_layers, 2, H,
    m, dh)``, ``R = |Y|`` with ``entropy``, else 1), its token terms
    (``terms``) and whether the row holds them (``held``).  None of these
    depend on the rest of the batch, so a step's stacks run only the
    examples the memo lacks.  The first ``capacity`` rows are the chain's
    first example slots, at most ``_MEMO_FLOATS`` floats besides the token
    terms; a batch member whose slot is past them takes the row after them
    at its batch position, which holds nothing from step to step.
    ``examples`` counts the chain's example slots.
    """

    def __init__(self):
        self.examples = 0  # the chain's example slots
        self.key = self.head = self.prefix = self.held = self.shapes = None


def _chain_memo(prompt: SoftPrompt, batch, task, model, weights, grad: bool, labels: int):
    """The store ``batch``'s evaluation on an adapter that extends passes
    reads and writes, and each member's row in it.

    That is the memo ``batch``'s examples carry (a chain's examples all
    carry its one memo), emptied unless its key is this evaluation's, or,
    where a memo cannot serve, a throwaway store of one row per member with
    one right-hand side: without a memo, for an unprojected prompt or a
    call without a gradient, and, with an ``entropy`` term, in a chain with
    more examples than the memo can hold or at the first evaluation under a
    key.  ``labels`` is |Y|."""
    memo, b = getattr(batch[0], "memo", None) if batch else None, len(batch)
    sides = labels if "entropy" in weights else 1
    floats = sides * 2 * model.n_layers * prompt.entries.size  # key/value gradients per slot
    served = memo is not None and grad and prompt.token_ids is not None
    if served:
        key = (prompt.token_ids, model, task, tuple(weights.items()), b)
        fresh, memo.key = memo.key != key, key
        if fresh:
            memo.head = memo.prefix = memo.held = None
        # |Y| key/value gradients per example with ``entropy``: they pay only
        # when examples come back under the same prompt, which needs room for
        # them all and a prompt that lasts beyond its first step
        served = "entropy" not in weights or not (fresh or memo.examples * floats > _MEMO_FLOATS)
    if not served:  # no slot has a row of its own
        memo, sides = _ChainMemo(), 1
    if memo.held is None:  # empty: no row holds anything
        cap = memo.capacity = min(memo.examples, _MEMO_FLOATS // (labels + prompt.dim + floats))
        memo.held, memo.terms, H = np.zeros(cap + b, dtype=bool), {}, model.n_heads
        shapes = ((cap + b, labels), (cap + b, prompt.dim),
                  (cap + b, sides, model.n_layers, 2, H, prompt.length, prompt.dim // H))
        if memo.shapes != shapes:  # the arrays of an earlier key serve a later one
            memo.shapes, (memo.labels, memo.first, memo.kv) = shapes, map(np.empty, shapes)
    return memo, np.array([ex.slot if served and ex.slot < memo.capacity else memo.capacity + i
                           for i, ex in enumerate(batch)], dtype=np.intp)


def _check_batch(batch, task: TaskSpec, need_labels: bool):
    if not batch:
        raise UsageError("batch must be nonempty")
    if need_labels:
        labels = task.labels
        for ex in batch:
            if ex.label is None:
                raise DataError(f"unlabeled example in labeled batch: {ex.text!r}")
            if ex.label not in labels:
                raise DataError(f"label {ex.label!r} outside task labels {list(labels)}")


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


def _stacked_passes(prompt: SoftPrompt, seqs, model, vids, domain: bool,
                    memo: _ChainMemo, rows):
    """The prompt's own pass, then one stacked extension per body length of
    the examples a memo does not hold, each stack read off on its own.

    Returns ``(head, labels, terms, backward)``.  ``head`` is the prompt's
    pass.  ``labels`` holds, in batch order, each example's label-row
    logits at ``vids``, and ``terms`` one array per example, its token terms
    with ``domain`` (an empty body has none, and its label row is the
    prompt's last row).  Without ``domain`` the stacks run their top layer
    on the label rows only.  ``backward(d_head, d_own, d_batch, w_tokens)``
    takes the gradients w.r.t. ``head``'s hidden rows and w.r.t. ``labels``,
    split in two: ``d_own``, whose rows depend on their example alone, and
    ``d_batch``, whose rows sum to zero (either may be None), and the weight
    of the token terms; it returns the gradient w.r.t. the prompt rows.

    Each stack takes one backward over its right-hand sides: its members'
    own gradients (``d_own`` at the label rows, ``w_tokens`` times the token
    terms' gradient) and, with ``d_batch``, the directions ``E[v_y] -
    E[v_0]`` (``y >= 1``) at the label rows.  That gives each member one
    key/value gradient per right-hand side, and the prompt's pass takes
    their sums in batch order, a direction's times its ``d_batch``
    coefficient.  ``memo`` is the store from :func:`_chain_memo`, and
    ``rows`` each example's row in it: every stack scatters what it gives
    its members into their rows with one assignment, and the batch is
    gathered from them with one index.  The prompt's pass is the memo's when
    it holds one, and the stacks run only the examples whose rows it does
    not hold.  A member's backward has the same bits in any stack, so a
    held example gives the bits of a fresh one.  With one right-hand side
    per stack, ``d_batch`` joins ``d_own``.
    """
    table = model.embedding_table().entries
    m, b = prompt.length, len(seqs)
    head = memo.head = memo.head or model.forward(prompt.entries)
    last = head.logits[m - 1]
    full = np.array([len(seq) > 0 for seq in seqs], dtype=bool)
    missed = (full & ~memo.held[rows]).tolist()
    stacks = []
    for idx in _by_length(seqs):
        idx = [i for i in idx if missed[i]]
        if not idx:
            continue
        ids = np.array([seqs[i] for i in idx])
        fw = model.forward(table[ids], past=head.cache, last_only=not domain)
        memo.labels[rows[idx]] = fw.logits[:, -1, vids]
        d_tok = None
        if domain:  # the prompt's last row predicts each body's first token
            cols = np.concatenate([np.broadcast_to(last, (len(idx), 1, len(last))),
                                   fw.logits[:, :-1]], axis=1)
            terms, d_tok = _token_readout(cols.reshape(-1, len(last)), ids.ravel(), table)
            d_tok = d_tok.reshape(*ids.shape, -1)
            memo.terms.update(zip(rows[idx].tolist(), terms.reshape(ids.shape)))
        stacks.append((idx, fw, d_tok))
    labels = memo.labels[rows]
    labels[~full] = last[vids]

    def backward(d_head, d_own, d_batch, w_tokens):
        d_labels = d_own if d_batch is None else d_own + d_batch
        # with one right-hand side per stack, the batch part joins the own one
        own, dirs = ((d_own, table[vids[1:]] - table[vids[:1]]) if memo.kv.shape[1] > 1
                     else (d_labels, table[:0]))
        for idx, fw, d_tok in stacks:
            rhs = np.zeros((1 + len(dirs), *fw.hidden.shape))
            rhs[0, :, -1] = _exact_matmul(own[idx], table[vids])
            rhs[1:, :, -1] = dirs[:, None]
            if domain:
                rhs[0, :, :-1] = w_tokens * d_tok[:, 1:]
            at = rows[idx]
            memo.first[at] = w_tokens * d_tok[:, 0] if domain else 0.0
            kv = model.backward_input(fw.cache, d_hidden=rhs)  # (R, n_layers, 2, G, H, m, dh)
            memo.kv[at], memo.held[at] = kv.transpose(3, 0, 1, 2, 4, 5, 6), True
        memo.held[memo.capacity:] = False  # rows past capacity hold nothing
        first = memo.first[rows]  # an empty body's label row is the prompt's last row
        first[~full] = _exact_matmul(d_labels[~full], table[vids])
        d_head[m - 1] += first.sum(axis=0)
        # per example, its own gradient plus its coefficients times the directions
        kv = memo.kv[rows[full]].swapaxes(0, 1)  # (R, K, n_layers, 2, H, m, dh)
        coeffs = () if d_batch is None else d_batch[full, 1:].T[..., None, None, None, None, None]
        d_past = sum((c * g for c, g in zip(coeffs, kv[1:])), kv[0]).transpose(1, 2, 0, 3, 4, 5)
        return model.backward_input(head.cache, d_hidden=d_head,
                                    d_past=d_past if full.any() else None)

    terms = ([memo.terms[r] if seq else np.zeros(0) for r, seq in zip(rows.tolist(), seqs)]
             if domain else [])
    return head, labels, terms, backward


def _full_passes(prompt: SoftPrompt, seqs, model, vids, domain: bool):
    """One full pass over ``prompt + body`` per example, for adapters that do
    not extend passes, read off as :func:`_stacked_passes` reads its stacks,
    with the first example's pass as ``head`` (the prompt's own pass without
    examples); its ``backward`` runs one backward per pass."""
    table = model.embedding_table().entries
    m = prompt.length
    fws = [model.forward(_input_matrix(prompt, seq, model)) for seq in seqs]
    head = fws[0] if fws else model.forward(prompt.entries)
    labels = np.array([fw.logits[-1, vids] for fw in fws]).reshape(len(seqs), len(vids))
    # row m-1+t of a pass predicts its body's token t
    reads = [_token_readout(fw.logits[m - 1:-1], np.array(seq, dtype=np.intp), table)
             if domain else (np.zeros(0), None) for fw, seq in zip(fws, seqs)]

    def backward(d_head, d_own, d_batch, w_tokens):
        d_labels = d_own if d_batch is None else d_own + d_batch
        total = np.zeros_like(prompt.entries)
        for i, fw in enumerate(fws or [head]):
            d_hidden = np.zeros_like(fw.hidden)
            if fws:
                d_hidden[-1] = d_labels[i] @ table[vids]
                if domain:
                    d_hidden[m - 1:-1] = w_tokens * reads[i][1]
            if fw is head:
                d_hidden[:m] += d_head
            total += model.backward_input(fw.cache, d_hidden=d_hidden)[:m]
        return total

    return head, labels, [terms for terms, _ in reads], backward


def _token_readout(rows: np.ndarray, targets: np.ndarray, table: np.ndarray):
    """NLLs of the tokens ``targets``, one per logit row of ``rows``, and their
    gradient w.r.t. the hidden rows behind ``rows``; each row's bits do not
    depend on the other rows."""
    lse = logsumexp(rows)
    at = (np.arange(rows.shape[0]), targets)
    terms = lse - rows[at]
    p = np.exp(rows - lse[:, None])
    p[at] -= 1.0
    return terms, _exact_matmul(p, table)


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
    domain = "domain" in weights
    vids = verbalizer_token_ids(task, model) if weights.keys() & {"task", "entropy"} else []
    memo, rows = (_chain_memo(prompt, batch, task, model, weights, grad, len(vids))
                  if _extends(model) else (None, None))
    head, labels, tok_terms, backward = (
        _stacked_passes(prompt, seqs, model, vids, domain, memo, rows) if memo is not None
        else _full_passes(prompt, seqs, model, vids, domain))
    d_head = np.zeros_like(prompt.entries)
    d_own, d_batch = np.zeros_like(labels), None

    values = {}
    prefix_terms, direct = np.zeros(0), np.zeros_like(prompt.entries)
    if "fluency" in weights or domain:
        prefix = getattr(memo, "prefix", None) or _prefix_readout(prompt, head, table)
        if memo is not None:
            memo.prefix = prefix
        prefix_terms, d_prefix, direct = prefix
        d_head[:m - 1] = (w["fluency"] + w["domain"]) * d_prefix
    if "fluency" in weights:
        values["fluency"] = math.fsum(prefix_terms.tolist())
    if vids:
        probs = _restricted_softmax(labels, slice(None))
    if "task" in weights:
        order = task.labels
        gold = (np.arange(b), [order.index(ex.label) for ex in batch])
        values["task"] = math.fsum([-math.log(p) for p in probs[gold].tolist()]) / b
        d_label = probs.copy()
        d_label[gold] -= 1.0
        d_own = (w["task"] / b) * d_label
    if "entropy" in weights:
        pbar = [math.fsum(col) / b for col in probs.T.tolist()]
        values["entropy"] = math.fsum([py * math.log(py) for py in pbar if py > 0.0])
        if grad:
            # d value / d logit_y' through each example's restricted softmax
            log_pbar = np.log(pbar)
            d_batch = w["entropy"] * (probs * (log_pbar - (probs @ log_pbar)[:, None]) / b)
    if domain:
        prefix_list = prefix_terms.tolist()
        values["domain"] = math.fsum([math.fsum(prefix_list + terms.tolist())
                                      for terms in tok_terms]) / b
    if not grad:
        return values, None
    return values, ((w["fluency"] + w["domain"]) * direct
                    + backward(d_head, d_own, d_batch, w["domain"] / max(b, 1)))


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
