"""Language-model adapter layer and the deterministic tiny reference model.

An adapter exposes embedding-level access to a fixed autoregressive model:
its embedding table, a tokenizer for surface text, a forward pass taking a
matrix of input embeddings (so tunable prompt rows can bypass the embedding
layer), and a vector-Jacobian product back to those input embeddings.  Model
weights are never modified.

The built-in adapter is ``TinyCausalLM``, a two-layer pre-norm causal
transformer over a ~60-word vocabulary with weights drawn deterministically
from a seed.  It is small enough that every analytic gradient in this package
can be cross-checked against central finite differences in well under a
minute, and it is the model used by the test suite, the demos, and the
default CLI configuration (``--model reference:<seed>``).  Loading pretrained
models is out of scope here; third parties can plug one in through
:func:`register_adapter` as long as it implements the same surface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigurationError, ModelFault, UsageError
from .tasks import render, verbalizer_token_ids

__all__ = [
    "EmbeddingTable",
    "SoftPrompt",
    "LabelDistribution",
    "ForwardPass",
    "TinyCausalLM",
    "REFERENCE_VOCAB",
    "make_reference_model",
    "register_adapter",
    "load_adapter",
    "label_word_distribution",
    "as_soft_prompt",
    "prompt_from_ids",
]


@dataclass(frozen=True)
class EmbeddingTable:
    """The model's token-embedding matrix plus per-row surface forms."""

    entries: np.ndarray  # (V, d) float64
    token_text: tuple[str, ...]

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise ConfigurationError("embedding table must be a V x d matrix")
        v, d = self.entries.shape
        if v < 2 or d < 1:
            raise ConfigurationError(f"embedding table too small: V={v}, d={d}")
        if not np.all(np.isfinite(self.entries)):
            raise ConfigurationError("embedding table contains non-finite entries")
        if len(self.token_text) != v:
            raise ConfigurationError(
                f"token_text has {len(self.token_text)} entries, expected {v}"
            )

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SoftPrompt:
    """A sequence of tunable embedding rows prepended to every model input.

    ``token_ids`` is populated when the prompt is currently projected onto
    the embedding table, in which case row ``m`` equals table row
    ``token_ids[m]`` exactly.  An *absent* prompt (no prepended rows) is
    represented by ``None`` wherever a prompt argument is accepted, never by
    a zero-length SoftPrompt.
    """

    entries: np.ndarray  # (M, d) float64
    token_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.entries.ndim != 2 or self.entries.shape[0] < 1:
            raise ConfigurationError("soft prompt must be an M x d matrix with M >= 1")
        if not np.all(np.isfinite(self.entries)):
            raise ConfigurationError("soft prompt contains non-finite entries")
        if self.token_ids is not None and len(self.token_ids) != self.entries.shape[0]:
            raise ConfigurationError("token_ids length must equal prompt length")

    @property
    def length(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class LabelDistribution:
    """A probability distribution over an ordered label set."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        if len(self.labels) != len(self.probs):
            raise ValueError("labels and probs must have equal length")
        if np.any(self.probs < 0) or abs(float(np.sum(self.probs)) - 1.0) > 1e-9:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-9")

    def __getitem__(self, label: str) -> float:
        return float(self.probs[self.labels.index(label)])


@dataclass
class ForwardPass:
    """Result of one embedding-level forward pass.

    ``hidden`` holds the final-layer hidden state at each position; the row
    at position ``m - 1`` is the conditioning vector for predicting position
    ``m``.  ``logits`` are next-token scores over the full vocabulary at each
    position.  ``cache`` carries the intermediates needed by
    ``backward_input`` and is opaque to callers, except that the reference
    model accepts it as ``past`` to extend the pass (and stores the number of
    positions it covers under ``"L"``).
    """

    hidden: np.ndarray  # (L, d); (G, n, d) for a stack
    logits: np.ndarray  # (L, V); (G, n, V) for a stack
    cache: dict = field(repr=False)


# Word-level vocabulary for the reference model: two specials, common filler,
# every word used by the built-in task templates / verbalizers / domain word
# lists, and two disjoint ten-word pools that synthetic datasets draw from.
REFERENCE_VOCAB: tuple[str, ...] = (
    "<pad>", "<unk>",
    "the", ".", ",",
    # built-in task material
    "this", "is", "a", "an", "it", "was", "about",
    "movie", "review", "amazon", "product", "news",
    "positive", "negative", "politics", "sports", "business", "technology",
    "film", "cinima", "cinema", "director", "book", "furniture",
    "topic", "category",
    # synthetic pool A
    "great", "fun", "bright", "sharp", "crisp", "fresh", "warm", "rich",
    "clean", "new",
    # synthetic pool B
    "terrible", "boring", "dull", "slow", "dark", "cold", "stale", "messy",
    "poor", "old",
    # judgment words and filler
    "good", "bad",
    "and", "story", "plot", "actor", "scene", "music", "not",
)

_WORD_RE = re.compile(r"\w+|[^\w\s]")

_GELU_C = 1.0 / np.sqrt(2.0)
_PHI_C = 1.0 / np.sqrt(2.0 * np.pi)


# ``erf_z`` is ``erf(z * _GELU_C)``: the forward keeps it for the backward.

def _gelu(z, erf_z):
    return 0.5 * z * (1.0 + erf_z)


def _gelu_prime(z, erf_z):
    return 0.5 * (1.0 + erf_z) + z * _PHI_C * np.exp(-0.5 * z * z)


# Row means are written ``sum / d``: bitwise what ``ndarray.mean`` computes
# (an add-reduce, then a true divide by the count) without its Python wrapper.

def _layernorm_forward(x, gamma, beta, eps=1e-5):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv)


def _layernorm_backward(dy, cache, gamma):
    xhat, inv = cache
    d = xhat.shape[-1]
    dxhat = dy * gamma
    return inv * (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / d
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    )


# Every row of a full pass or of a stack gets bitwise the states the same
# position gets in any longer full pass, so a stack of bodies can stand in
# for per-example passes.  numpy sends a product whose left operand has one
# row to BLAS's matrix-vector routine, which rounds differently from the same
# row inside a matrix product, so such a product runs on two copies of the
# row (``_two_rows``); and the transposed copy of a one-query softmax ends in
# a unit axis, which numpy would sum pairwise, so that normalizer is a
# running sum.  2-D extensions, the per-token read path, skip both and may
# differ in the last bits; their products stay plain ``np.matmul`` calls.

def _two_rows(a, b):
    return (np.concatenate([a, a], axis=-2) @ b)[..., :1, :]


def _flat(matmul):
    """``matmul(x, W)`` over the last axis of a stack, as one 2-D product."""
    def dense(x, W):
        return matmul(x.reshape(-1, x.shape[-1]), W).reshape(*x.shape[:-1], W.shape[1])
    return dense


def _softmax_rows(scores, running_sum):
    # rows may contain -inf from the causal mask; every row keeps >= 1 finite entry.
    # The normalizer is summed key by key in order (over a transposed copy), so
    # the masked zeros after a query never regroup the sum: a causal prefix gets
    # bitwise the same states whatever follows it, which lets energies read the
    # prompt segment of any example's pass as the prompt's own pass.
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    if running_sum:
        total = np.cumsum(e, axis=-1)[..., -1]
    else:
        total = np.ascontiguousarray(np.swapaxes(e, -1, -2)).sum(axis=-2)
    return e / total[..., None]


class TinyCausalLM:
    """A fixed-weight causal transformer small enough for desk-scale oracles.

    Pre-norm blocks (attention then GELU MLP), learned positional embeddings,
    and an output layer tied to the embedding table: ``logits = hidden @ E.T``.
    All arithmetic is float64 and fully deterministic, so identical inputs
    give bitwise-identical outputs.  Instances are read-only after
    construction and safe to share across concurrent chains.
    """

    def __init__(self, seed: int, vocab: Sequence[str], dim: int, n_layers: int,
                 n_heads: int, max_len: int):
        if dim % n_heads != 0:
            raise ConfigurationError(f"dim {dim} not divisible by n_heads {n_heads}")
        vocab = tuple(vocab)
        if len(vocab) != len(set(vocab)):
            raise ConfigurationError("vocabulary contains duplicate tokens")
        self.seed = seed
        self.dim = dim
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.max_len = max_len
        self.token_text = vocab
        self.vocab_size = len(vocab)
        self._index = {t: i for i, t in enumerate(vocab)}
        self.pad_id = self._index["<pad>"]
        self.unk_id = self._index["<unk>"]
        self.special_token_ids = frozenset({self.pad_id, self.unk_id})
        # stand-in for "most frequent non-special token"; the toy vocabulary
        # has no corpus statistics, so the first non-special entry plays that role
        self.neutral_token_id = min(
            i for i in range(self.vocab_size) if i not in self.special_token_ids
        )

        rng = np.random.default_rng(seed)
        d, v = dim, self.vocab_size
        self._E = rng.normal(0.0, 1.0 / np.sqrt(d), (v, d))
        self._pos = rng.normal(0.0, 0.5 / np.sqrt(d), (max_len, d))
        self._layers = []
        for _ in range(n_layers):
            self._layers.append({
                "Wq": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "Wk": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "Wv": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "Wo": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "W1": rng.normal(0.0, 1.0 / np.sqrt(d), (d, 4 * d)),
                "W2": rng.normal(0.0, 1.0 / np.sqrt(4 * d), (4 * d, d)),
                "g1": np.ones(d), "b1": np.zeros(d),
                "g2": np.ones(d), "b2": np.zeros(d),
            })
        self._gf = np.ones(d)
        self._bf = np.zeros(d)
        self._table = EmbeddingTable(entries=self._E, token_text=vocab)

    # -- text interface -------------------------------------------------

    def tokenize(self, text: str) -> list[int]:
        """Lowercased word-level tokenization; out-of-vocabulary words map to <unk>."""
        return [self._index.get(w, self.unk_id) for w in _WORD_RE.findall(text.lower())]

    def decode(self, ids: Sequence[int]) -> str:
        return " ".join(self.token_text[i] for i in ids)

    def embedding_table(self) -> EmbeddingTable:
        return self._table

    # -- numeric interface ------------------------------------------------

    def forward(self, X: np.ndarray, past: dict | None = None) -> ForwardPass:
        """Run the model on a matrix of input embeddings.

        ``X`` has one row per position; prompt rows may be arbitrary soft
        vectors while body rows are usually copies of embedding-table rows.

        ``past`` is the ``cache`` of an earlier 2-D pass over the positions
        that precede ``X``.  Only the rows of ``X`` are then run: they sit at
        positions ``past["L"]`` onwards and attend over the cached keys and
        values.  The result holds hidden states and logits for those rows
        only, and a cache covering every position, so 2-D passes chain.

        ``X`` may also be a stack ``(G, n, d)`` of ``G`` equal-length
        bodies, each run as its own pass, or each extending the same pass
        when ``past`` is given; hidden states and logits are then
        ``(G, n, d)`` and ``(G, n, V)``.  Cached keys and values are
        broadcast over a stack only, so a 2-D extension copies none of them.
        """
        X = np.asarray(X, dtype=np.float64)
        stacked = X.ndim == 3
        if X.ndim not in (2, 3) or X.shape[-1] != self.dim:
            raise ConfigurationError(
                f"input must be L x {self.dim} or G x n x {self.dim}, got shape {X.shape}"
            )
        lead, n = X.shape[:-2], X.shape[-2]
        start = 0 if past is None else past["L"]
        L = start + n
        if n < 1 or L > self.max_len:
            raise ConfigurationError(f"sequence length {L} outside [1, {self.max_len}]")

        H, dh = self.n_heads, self.dim // self.n_heads
        scale = 1.0 / np.sqrt(dh)
        # row i is position start + i: it sees keys 0 .. start + i
        mask = np.triu(np.full((n, L), -np.inf), k=start + 1)
        past_layers = past["layers"] if past is not None else [None] * self.n_layers
        one_exact_row = n == 1 and (stacked or past is None)
        mm = _two_rows if one_exact_row else np.matmul
        dense = _flat(_two_rows if len(X) * n == 1 else np.matmul) if stacked else mm
        per_head = (*lead, n, H, dh)

        x = X + self._pos[start:L]
        layer_caches = []
        for lw, pc in zip(self._layers, past_layers):
            a, ln1 = _layernorm_forward(x, lw["g1"], lw["b1"])
            q = dense(a, lw["Wq"]).reshape(per_head).swapaxes(-2, -3)
            k = dense(a, lw["Wk"]).reshape(per_head).swapaxes(-2, -3)
            v = dense(a, lw["Wv"]).reshape(per_head).swapaxes(-2, -3)
            if pc is not None:
                pk, pv = pc["k"], pc["v"]
                if stacked:
                    pk = np.broadcast_to(pk, (*lead, *pk.shape))
                    pv = np.broadcast_to(pv, (*lead, *pv.shape))
                k = np.concatenate([pk, k], axis=-2)
                v = np.concatenate([pv, v], axis=-2)
            scores = mm(q, k.swapaxes(-1, -2)) * scale + mask
            A = _softmax_rows(scores, one_exact_row)
            o = mm(A, v).swapaxes(-2, -3).reshape(*lead, n, self.dim)
            x = x + dense(o, lw["Wo"])

            f, ln2 = _layernorm_forward(x, lw["g2"], lw["b2"])
            z1 = dense(f, lw["W1"])
            erf_z1 = erf(z1 * _GELU_C)
            x = x + dense(_gelu(z1, erf_z1), lw["W2"])
            layer_caches.append({"ln1": ln1, "ln2": ln2, "q": q, "k": k, "v": v,
                                 "A": A, "z1": z1, "erf_z1": erf_z1})

        hidden, lnf = _layernorm_forward(x, self._gf, self._bf)
        logits = dense(hidden, self._E.T)
        if not np.all(np.isfinite(logits)):
            raise ModelFault("model produced non-finite logits")
        return ForwardPass(hidden=hidden, logits=logits,
                           cache={"layers": layer_caches, "lnf": lnf, "L": L,
                                  "start": start, "stacked": stacked})

    def backward_input(self, cache: dict, d_hidden: np.ndarray | None = None,
                       d_logits: np.ndarray | None = None,
                       d_past: list | None = None):
        """Vector-Jacobian product from output gradients back to the input rows.

        Accepts a gradient w.r.t. ``hidden``, w.r.t. ``logits`` (folded
        through the tied output layer), or both summed.

        On the cache of a full pass it returns the gradient w.r.t. the input
        rows.  ``d_past`` then adds, per layer, gradients ``(dk, dv)`` w.r.t.
        the pass's own attention keys and values, ``(H, L, dh)`` each: the
        ones a stacked extension of this pass returns.

        On the cache of a stacked extension it returns ``(d_rows, d_past)``:
        the gradient w.r.t. the stacked rows, and per layer the gradients
        w.r.t. the keys and values of the extended pass, summed over the
        stack.  Passing that ``d_past`` to the extended pass's own backward
        completes the gradient (exact by linearity).  A 2-D extension is a
        read: its cache is refused.
        """
        start, L = cache["start"], cache["L"]
        if start and not cache["stacked"]:
            raise ConfigurationError(
                "backward_input needs the cache of a full pass or of a stacked "
                "extension, not a 2-D extension"
            )
        lead, n = cache["lnf"][0].shape[:-2], L - start
        H, dh = self.n_heads, self.dim // self.n_heads
        scale = 1.0 / np.sqrt(dh)

        dense = _flat(np.matmul) if lead else np.matmul

        def rows(y):  # (..., H, n, dh) -> (..., n, d)
            return y.swapaxes(-2, -3).reshape(*lead, n, self.dim)

        dh_total = np.zeros((*lead, n, self.dim))
        if d_hidden is not None:
            dh_total += d_hidden
        if d_logits is not None:
            dh_total += dense(d_logits, self._E)
        dx = _layernorm_backward(dh_total, cache["lnf"], self._gf)

        d_past_in = d_past if d_past is not None else [None] * self.n_layers
        d_past_out = []
        for lw, lc, dp in zip(reversed(self._layers), reversed(cache["layers"]),
                              reversed(d_past_in)):
            dg1v = dense(dx, lw["W2"].T)
            dz1 = dg1v * _gelu_prime(lc["z1"], lc["erf_z1"])
            df = dense(dz1, lw["W1"].T)
            dx = dx + _layernorm_backward(df, lc["ln2"], lw["g2"])

            do = dense(dx, lw["Wo"].T).reshape(*lead, n, H, dh).swapaxes(-2, -3)
            A, q, k, v = lc["A"], lc["q"], lc["k"], lc["v"]
            dA = do @ v.swapaxes(-1, -2)
            dv = A.swapaxes(-1, -2) @ do
            dscores = A * (dA - (dA * A).sum(axis=-1, keepdims=True))
            dq = dscores @ k * scale
            dk = dscores.swapaxes(-1, -2) @ q * scale
            if dp is not None:
                dk, dv = dk + dp[0], dv + dp[1]
            if start:
                d_past_out.append((dk[..., :start, :].sum(axis=0),
                                   dv[..., :start, :].sum(axis=0)))
                dk, dv = dk[..., start:, :], dv[..., start:, :]
            da = (dense(rows(dq), lw["Wq"].T) + dense(rows(dk), lw["Wk"].T)
                  + dense(rows(dv), lw["Wv"].T))
            dx = dx + _layernorm_backward(da, lc["ln1"], lw["g1"])
        if start:
            return dx, d_past_out[::-1]
        return dx


def make_reference_model(seed: int, *, vocab: Sequence[str] | None = None,
                         extra_tokens: Sequence[str] = (), dim: int = 24,
                         n_layers: int = 2, n_heads: int = 4,
                         max_len: int = 160) -> TinyCausalLM:
    """Build the deterministic tiny reference model.

    The same seed (and vocabulary) always yields identical weights.  Extra
    tokens are appended to the vocabulary before weights are drawn, so adding
    tokens changes the draw; pass the full token set up front when
    reproducibility across runs matters.
    """
    base = tuple(vocab) if vocab is not None else REFERENCE_VOCAB
    extras = tuple(t.lower() for t in extra_tokens)
    for t in extras:
        if t in base:
            raise ConfigurationError(f"extra token {t!r} already in vocabulary")
    return TinyCausalLM(seed=seed, vocab=base + extras, dim=dim,
                        n_layers=n_layers, n_heads=n_heads, max_len=max_len)


_ADAPTER_SCHEMES: dict[str, Callable[[str], object]] = {
    "reference": lambda arg: make_reference_model(int(arg)),
}


def register_adapter(scheme: str, loader: Callable[[str], object]) -> None:
    """Register a loader for ``<scheme>:<arg>`` adapter specs."""
    _ADAPTER_SCHEMES[scheme] = loader


def load_adapter(spec: str):
    """Instantiate an adapter from a ``<scheme>:<arg>`` string, e.g. ``reference:0``."""
    scheme, sep, arg = spec.partition(":")
    if not sep or scheme not in _ADAPTER_SCHEMES:
        known = ", ".join(sorted(_ADAPTER_SCHEMES))
        raise ConfigurationError(f"unknown adapter spec {spec!r} (known schemes: {known})")
    return _ADAPTER_SCHEMES[scheme](arg)


# -- adapter-level operations --------------------------------------------


def _check_input(prefix: SoftPrompt | None, bodies: Sequence[Sequence[int]],
                 table: EmbeddingTable):
    if prefix is not None and prefix.dim != table.dim:
        raise ConfigurationError(
            f"prompt dim {prefix.dim} does not match model dim {table.dim}"
        )
    if any(i < 0 or i >= table.rows for ids in bodies for i in ids):
        raise ConfigurationError("body token id outside vocabulary")
    if prefix is None and not all(bodies):
        raise ConfigurationError("nothing to run: empty prefix and empty body")


def _input_matrix(prefix: SoftPrompt | None, body_ids: Sequence[int], model) -> np.ndarray:
    table = model.embedding_table()
    ids = list(body_ids)
    _check_input(prefix, [ids], table)
    parts = [] if prefix is None else [prefix.entries]
    return np.concatenate(parts + [table.entries[ids]], axis=0)


def _restricted_softmax(logits: np.ndarray, vids) -> np.ndarray:
    """Softmax of logit rows (the last axis) restricted to the verbalizer token ids."""
    logits = logits[..., vids]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _extends(model) -> bool:
    """Whether the adapter's ``forward`` is the reference model's, which takes
    ``past``.  Looked up on the class: an override of ``forward(self, X)``
    (delegating the rest through ``__getattr__``) keeps full passes."""
    return getattr(type(model), "forward", None) is TinyCausalLM.forward


def _by_length(seqs: Sequence[Sequence[int]]) -> list[list[int]]:
    """Example indices grouped by rendered body length, shortest first."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(i)
    return [groups[n] for n in sorted(groups)]


def _read_pass(model, X: np.ndarray, past: ForwardPass | None = None) -> ForwardPass:
    """A forward-only pass whose last row reads out ``X``'s last position.

    ``past`` is a pass over the leading rows of ``X``, at least one row
    short of it.  When the adapter extends passes, only the rows after it
    are run; otherwise, and without ``past``, the whole of ``X`` is.  Either
    way the result's rows end at ``X``'s last position and it can serve as
    the next ``past``.
    """
    if past is None or not _extends(model):
        return model.forward(X)
    return model.forward(X[past.cache["L"]:], past=past.cache)


# A stack of bodies on the read path holds at most this many positions,
# prompt rows included, so scoring a large dataset peaks at the memory of a
# small one.
_STACK_POSITIONS = 128


def _label_probs(prompt: SoftPrompt | None, texts: Sequence[str], task, model) -> np.ndarray:
    """Restricted label softmax after prompt + each rendered text, ``(len(texts), |Y|)``.

    On an adapter that extends passes, a prompt's own pass is run once; the
    rendered bodies are grouped by length and each group runs as stacks of
    at most ``_STACK_POSITIONS`` positions (prompt rows included), which
    extend the prompt's pass or, with no prompt, are full passes.  An empty
    body reads the prompt pass's last row.  Only adapters that do not extend
    passes get one full pass per example.  Every row is bitwise the one a
    full pass gives.
    """
    vids = verbalizer_token_ids(task, model)
    seqs = [render(task, text, model) for text in texts]
    probs = np.empty((len(seqs), len(vids)))
    table = model.embedding_table()
    _check_input(prompt, seqs, table)
    if not _extends(model):
        for i, seq in enumerate(seqs):
            fw = model.forward(_input_matrix(prompt, seq, model))
            probs[i] = _restricted_softmax(fw.logits[-1], vids)
        return probs
    head = None if prompt is None else model.forward(prompt.entries)
    past, m = (None, 0) if head is None else (head.cache, prompt.length)
    for idx in _by_length(seqs):
        n = len(seqs[idx[0]])
        if n == 0:
            probs[idx] = _restricted_softmax(head.logits[-1], vids)
            continue
        size = max(1, _STACK_POSITIONS // (m + n))
        for s in range(0, len(idx), size):
            stack = idx[s:s + size]
            fw = model.forward(table.entries[np.array([seqs[i] for i in stack])], past=past)
            probs[stack] = _restricted_softmax(fw.logits[:, -1], vids)
    return probs


def label_word_distribution(prompt: SoftPrompt | None, text: str, task, model) -> LabelDistribution:
    """Label probabilities read from the position after the rendered template.

    The softmax is restricted to the verbalizer-token logits: the
    normalization runs over the label set only, not the full vocabulary.
    """
    return LabelDistribution(labels=task.labels,
                             probs=_label_probs(prompt, [text], task, model)[0])


def as_soft_prompt(prompt: SoftPrompt | str | None, model) -> SoftPrompt | None:
    """Coerce a prompt given as surface text into a projected SoftPrompt."""
    if prompt is None or isinstance(prompt, SoftPrompt):
        return prompt
    ids = model.tokenize(prompt)
    if not ids:
        raise UsageError(f"prompt text {prompt!r} produced no tokens")
    return prompt_from_ids(ids, model)


def prompt_from_ids(ids: Sequence[int], model) -> SoftPrompt:
    table = model.embedding_table()
    return SoftPrompt(entries=table.entries[list(ids)].copy(), token_ids=tuple(ids))
