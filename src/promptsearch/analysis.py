"""Diagnostics linking prompt calibration, domain relevance, and accuracy.

Provides per-prompt diagnostics rows (accuracy, perplexity, label-word
entropy under the task's domain string, domain-word counts), rank
correlation and paired-t significance utilities, nucleus-sampled
continuation generation for frequency counting, a calibrated unsupervised
prediction baseline (``pmi_dc_predict``), and a JSON report assembler
suitable for external plotting.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import stdtr

from .errors import ModelFault, UsageError
from .metrics import accuracy as _accuracy
from .metrics import prompt_perplexity
from .model import (SoftPrompt, _label_probs, _read_pass, as_soft_prompt,
                    label_word_distribution)
from .sampler import ChainRecord
from .tasks import Example, TaskSpec

__all__ = [
    "PromptDiagnostics",
    "label_entropy",
    "spearman",
    "domain_word_frequency",
    "LocalContinuationGenerator",
    "generate_continuations",
    "pmi_dc_predict",
    "paired_ttest",
    "diagnostics_report",
]

logger = logging.getLogger(__name__)

_SOURCES = ("tuned", "human", "random", "empty")
_N_BINS = 20  # equal-width label-entropy histogram bins on [0, ln |Y|]


@dataclass(frozen=True)
class PromptDiagnostics:
    """One row of the diagnostics report.

    ``perplexity`` is None when undefined (fewer than two tokens, e.g. the
    empty-prompt baseline row); it serializes to JSON null.
    """

    prompt_text: str
    accuracy: float
    perplexity: float | None
    label_entropy: float
    domain_word_count: int
    source: str  # "tuned" | "human" | "random" | "empty"

    def __post_init__(self):
        if self.source not in _SOURCES:
            raise UsageError(f"unknown diagnostics source {self.source!r}")
        if not -1e-9 <= self.label_entropy:
            raise UsageError(f"label_entropy out of range: {self.label_entropy}")

    def to_dict(self) -> dict:
        return asdict(self)


def label_entropy(prompt: SoftPrompt | str | None, task: TaskSpec, model) -> float:
    """Entropy of the label-word distribution given only the domain string.

    The input is the task's label-neutral domain description, so this probes
    the prior balance of the label words under the prompt: ``ln |Y|`` means
    perfectly balanced, 0 means collapsed onto one label.  ``prompt`` may be
    a soft prompt, a string, or None (nothing prepended).
    """
    soft = as_soft_prompt(prompt, model)
    dist = label_word_distribution(soft, task.domain_string, task, model)
    return -math.fsum(float(p * math.log(p)) for p in dist.probs if p > 0.0)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span.

    A stable sort plus tie-group means, exact in float64; any NaN makes
    every rank NaN.
    """
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Spearman rank correlation with a t-approximation p-value.

    Ranks use average ties; rho is the Pearson correlation of the rank
    vectors; the two-sided p-value uses ``t = rho * sqrt((n-2) / (1-rho^2))``
    with ``n - 2`` degrees of freedom (exactly +-1 gives p = 0).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise UsageError("spearman needs two equal-length 1-d sequences")
    n = xs.size
    if n < 3:
        raise UsageError(f"spearman needs length >= 3, got {n}")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise UsageError("spearman undefined for a constant input vector")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t_stat)))
    return rho, p


def domain_word_frequency(prompt_text: str, continuations: Sequence[str],
                          domain_words: Sequence[str]) -> int:
    """Case-insensitive whole-word matches of any domain word.

    Counts over the concatenation of the prompt and all continuations
    (newline-joined), using Unicode word boundaries; additive over
    continuations by construction.
    """
    if not domain_words:
        raise UsageError("domain_words must be nonempty")
    text = "\n".join([prompt_text, *continuations])
    total = 0
    for word in domain_words:
        total += len(re.findall(rf"\b{re.escape(word)}\b", text, flags=re.IGNORECASE))
    return total


class LocalContinuationGenerator:
    """Nucleus sampling from a local adapter; records per-step distributions.

    For each step the full pre-filter next-token distribution and the chosen
    token id are appended to a trace (one trace per call, in ``self.traces``)
    so tests can replay the nucleus filter.  The kept set is the smallest
    prefix of the probability-sorted vocabulary (stable sort, ties toward
    lower ids) whose mass reaches ``p``, renormalized before drawing.

    The context is run once, then extended one token per step through the
    adapter's ``past`` cache when it has one.  Once the context fills
    ``max_len`` the window slides, which moves every position, so each such
    step runs the truncated window in full.
    """

    def __init__(self, model, record_trace: bool = True):
        self.model = model
        self.record_trace = record_trace
        self.traces: list[list[tuple[np.ndarray, int]]] = []

    def __call__(self, prompt_text: str, *, p: float, length: int,
                 rng: np.random.Generator) -> str:
        ids = self.model.tokenize(prompt_text)
        if not ids:
            raise UsageError("continuation prompt tokenizes to nothing")
        table = self.model.embedding_table()
        context = list(ids)
        generated: list[int] = []
        trace: list[tuple[np.ndarray, int]] = []
        fw = None
        for _ in range(length):
            if len(context) >= self.model.max_len:
                context = context[-(self.model.max_len - 1):]
                fw = None
            fw = _read_pass(self.model, table.entries[context], fw)
            row = fw.logits[-1]
            probs = np.exp(row - row.max())
            probs /= probs.sum()
            order = np.argsort(-probs, kind="stable")
            csum = np.cumsum(probs[order])
            cutoff = min(int(np.searchsorted(csum, p)) + 1, probs.size)
            keep = order[:cutoff]
            kept = probs[keep] / probs[keep].sum()
            choice = int(rng.choice(keep, p=kept))
            if self.record_trace:
                trace.append((probs.copy(), choice))
            context.append(choice)
            generated.append(choice)
        if self.record_trace:
            self.traces.append(trace)
        return self.model.decode(generated)


def generate_continuations(prompt_text: str, generator: Callable, k: int,
                           p: float = 0.95, length: int = 100, *,
                           seed: int = 0, rng: np.random.Generator | None = None,
                           max_retries: int = 20) -> list[str]:
    """Sample ``k`` continuations of the prompt, preferring distinct ones.

    Duplicates trigger resampling up to ``max_retries`` total retries, after
    which duplicates are accepted with a warning.  ``generator`` is any
    callable ``(prompt_text, *, p, length, rng) -> str``; generator failures
    are surfaced with the draw count.
    """
    if k == 0:
        return []
    if rng is None:
        rng = np.random.default_rng(seed)
    results: list[str] = []
    retries = 0
    draws = 0
    while len(results) < k:
        draws += 1
        try:
            text = generator(prompt_text, p=p, length=length, rng=rng)
        except Exception as exc:
            raise ModelFault(
                f"continuation generator failed on draw {draws}: {exc}"
            ) from exc
        if text in results and retries < max_retries:
            retries += 1
            continue
        if text in results:
            logger.warning(
                "accepting duplicate continuation after %d retries", retries
            )
        results.append(text)
    return results


def pmi_dc_predict(x: str, task: TaskSpec, model) -> str:
    """Domain-calibrated unsupervised prediction.

    Scores each label by the ratio of its prompted probability on the input
    to its prior probability on the task's domain string (no prompt
    prepended in either pass); returns the argmax label, ties toward the
    earliest label.
    """
    p_x, p_d = _label_probs(None, [x, task.domain_string], task, model)
    return task.labels[int(np.argmax(p_x / p_d))]


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided paired t-test p-value.

    Zero variance of the differences is degenerate: p = 1 when the means
    also agree, p = 0 when they differ.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError("paired_ttest needs two equal-length 1-d sequences")
    n = a.size
    if n < 2:
        raise UsageError(f"paired_ttest needs length >= 2, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    t_stat = mean / (sd / math.sqrt(n))
    return 2.0 * float(stdtr(n - 1, -abs(t_stat)))


def _diagnose(prompt_text: str, source: str, acc: float, task: TaskSpec, model,
              generator, k: int, p: float, length: int,
              rng: np.random.Generator | None) -> PromptDiagnostics:
    prompt = prompt_text if source != "empty" else None
    try:
        ppl = prompt_perplexity(prompt_text, model) if source != "empty" else None
    except UsageError:
        ppl = None
    continuations: list[str] = []
    if generator is not None and k > 0 and source != "empty":
        continuations = generate_continuations(prompt_text, generator, k, p,
                                               length, rng=rng)
    return PromptDiagnostics(
        prompt_text=prompt_text,
        accuracy=acc,
        perplexity=ppl,
        label_entropy=label_entropy(prompt, task, model),
        domain_word_count=domain_word_frequency(prompt_text, continuations,
                                                task.domain_words),
        source=source,
    )


def diagnostics_report(chains: Sequence[ChainRecord], task: TaskSpec, model, *,
                       val_data: Sequence[Example] | None = None,
                       human_prompts: Sequence[str] = (),
                       random_prompts: Sequence[str] = (),
                       include_empty: bool = False,
                       effective_quantile: float = 0.9,
                       generator: Callable | None = None,
                       continuations_per_prompt: int = 5,
                       nucleus_p: float = 0.95,
                       continuation_length: int = 100,
                       seed: int = 0) -> dict:
    """Assemble the plot-ready diagnostics document.

    Inputs are tuned chains plus optional baseline prompt lists; one row per
    distinct (source, prompt) pair.  Accuracy comes from each chain's stored
    metrics when present, otherwise from ``val_data`` (required in that
    case, and always required for baseline prompts).  The document contains:

    * ``prompts``: the diagnostics rows;
    * ``entropy_hist``: the edges of 20 equal bins on ``[0, ln |Y|]``, shared
      by the overall counts and the per-source counts;
    * ``scatter``: ``[label_entropy, accuracy]`` pairs for the tuned rows;
    * ``spearman``: rho/p over the scatter columns, or null when undefined
      (fewer than 3 tuned rows, or a constant column);
    * ``domain_freq``: mean accuracy and mean domain-word count for the
      effective tuned prompts (accuracy >= the ``effective_quantile``
      quantile of tuned accuracies) and for the random baseline, plus a
      paired t-test p-value on the two count lists trimmed to the shorter
      length (null when either side is empty or the trimmed length is < 2).

    When ``generator`` is supplied, domain-word counts include sampled
    continuations (one deterministic stream across all rows, from ``seed``).
    """
    rng = np.random.default_rng(seed) if generator is not None else None

    def chain_accuracy(rec: ChainRecord) -> float:
        if "accuracy" in rec.metrics:
            return rec.metrics["accuracy"]
        if val_data is None:
            raise UsageError(
                "chains carry no accuracy metric and no val_data was given"
            )
        return _accuracy(rec.final_prompt_text, val_data, task, model)

    def baseline_accuracy(prompt_text: str | None) -> float:
        if val_data is None:
            raise UsageError("baseline prompts need val_data for accuracy")
        return _accuracy(prompt_text, val_data, task, model)

    rows: list[PromptDiagnostics] = []
    seen: set[tuple[str, str]] = set()

    def add(text: str, source: str, acc: float):
        key = (source, text)
        if key in seen:
            return
        seen.add(key)
        rows.append(_diagnose(text, source, acc, task, model, generator,
                              continuations_per_prompt, nucleus_p,
                              continuation_length, rng))

    for rec in chains:
        add(rec.final_prompt_text, "tuned", chain_accuracy(rec))
    for text in human_prompts:
        add(text, "human", baseline_accuracy(text))
    for text in random_prompts:
        add(text, "random", baseline_accuracy(text))
    if include_empty:
        add("", "empty", baseline_accuracy(None))

    max_h = math.log(len(task.labels))
    edges = np.linspace(0.0, max_h, _N_BINS + 1)
    entropies = np.array([r.label_entropy for r in rows], dtype=float)
    counts, _ = np.histogram(np.clip(entropies, 0.0, max_h), bins=edges)
    by_source = {}
    for source in _SOURCES:
        vals = [r.label_entropy for r in rows if r.source == source]
        if vals:
            c, _ = np.histogram(np.clip(vals, 0.0, max_h), bins=edges)
            by_source[source] = c.tolist()

    tuned = [r for r in rows if r.source == "tuned"]
    scatter = [[r.label_entropy, r.accuracy] for r in tuned]
    try:
        rho, p_val = spearman([s[0] for s in scatter], [s[1] for s in scatter])
        spearman_doc = {"rho": rho, "p": p_val}
    except UsageError:
        spearman_doc = None

    def freq_summary(subset: list[PromptDiagnostics]):
        if not subset:
            return None
        return {"mean_acc": float(np.mean([r.accuracy for r in subset])),
                "mean_freq": float(np.mean([r.domain_word_count for r in subset]))}

    effective: list[PromptDiagnostics] = []
    if tuned:
        threshold = float(np.quantile([r.accuracy for r in tuned],
                                      effective_quantile))
        effective = [r for r in tuned if r.accuracy >= threshold]
    randoms = [r for r in rows if r.source == "random"]
    t_test_p = None
    n_pair = min(len(effective), len(randoms))
    if n_pair >= 2:
        t_test_p = paired_ttest(
            [r.domain_word_count for r in effective[:n_pair]],
            [r.domain_word_count for r in randoms[:n_pair]],
        )

    return {
        "prompts": [r.to_dict() for r in rows],
        "entropy_hist": {"bins": edges.tolist(), "counts": counts.tolist(),
                         "by_source": by_source},
        "scatter": scatter,
        "spearman": spearman_doc,
        "domain_freq": {"effective": freq_summary(effective),
                        "random": freq_summary(randoms),
                        "t_test_p": t_test_p},
    }
