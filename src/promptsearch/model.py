"""Language-model adapter layer and the deterministic tiny reference model.

An adapter exposes embedding-level access to a fixed autoregressive model:
its embedding table, a tokenizer for surface text, a forward pass taking a
matrix of input embeddings (so tunable prompt rows can bypass the embedding
layer), and a vector-Jacobian product back to those input embeddings.  Model
weights are never modified.

The built-in adapter is ``TinyCausalLM``, a two-layer pre-norm causal
transformer over a ~60-word vocabulary with weights drawn deterministically
from a seed; its layer norms have no gain or bias.  It is small enough that
every analytic gradient in this package can be cross-checked against central
finite differences in well under a minute, and it is the model used by the
test suite, the demos, and the default CLI configuration
(``--model reference:<seed>``).  Loading pretrained models is out of scope
here; third parties can plug one in through :func:`register_adapter` as long
as it implements the same surface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigurationError, ModelFault, UsageError
from .synthetic import POOL_A, POOL_B
from .tasks import _token_ids, verbalizer_token_ids

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

    hidden: np.ndarray  # (L, d); (G, n, d) for a stack; one row per body if last_only
    logits: np.ndarray  # (L, V); (G, n, V) for a stack; one row per body if last_only
    cache: dict = field(repr=False)


# Word-level vocabulary for the reference model: two specials, common filler,
# every word used by the built-in task templates / verbalizers / domain word
# lists, and the two disjoint ten-word pools that synthetic datasets draw from.
REFERENCE_VOCAB: tuple[str, ...] = (
    "<pad>", "<unk>",
    "the", ".", ",",
    # built-in task material
    "this", "is", "a", "an", "it", "was", "about",
    "movie", "review", "amazon", "product", "news",
    "positive", "negative", "politics", "sports", "business", "technology",
    "film", "cinima", "cinema", "director", "book", "furniture",
    "topic", "category",
    *POOL_A, *POOL_B,
    # judgment words and filler
    "good", "bad",
    "and", "story", "plot", "actor", "scene", "music", "not",
)

# the special tokens first, so that decoded text tokenizes back to them whole
_WORD_RE = re.compile(r"<pad>|<unk>|\w+|[^\w\s]")

_GELU_C = 1.0 / np.sqrt(2.0)
_PHI_C = 1.0 / np.sqrt(2.0 * np.pi)


# GELU is ``z * gate`` with ``gate = 0.5 * (1 + erf(z * _GELU_C))``, the normal
# CDF at ``z``: the forward keeps the gate for the backward.

def _gelu_prime(z, gate):
    return gate + z * _PHI_C * np.exp(-0.5 * z * z)


# Layer norms have unit gain and zero bias, so they carry no parameters: the
# affine step would be the identity.  Row means are written ``sum / d``:
# bitwise what ``ndarray.mean`` computes (an add-reduce, then a true divide by
# the count) without its Python wrapper.

def _layernorm_forward(x, eps=1e-5):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    return xhat, (xhat, inv)


def _layernorm_backward(dy, cache):
    xhat, inv = cache
    d = xhat.shape[-1]
    return inv * (
        dy
        - dy.sum(axis=-1, keepdims=True) / d
        - xhat * (dy * xhat).sum(axis=-1, keepdims=True) / d
    )


# Every pass, a stack included, runs its residual stream as one row per
# position, ``(rows, d)``: the inputs plus positions, both layer norms, every
# dense product, GELU, the final norm and the logits.  Only attention reshapes,
# to ``(*lead, n, H, dh)``.  Every row of a pass, whether full, stacked or
# extending a ``past``, gets bitwise the states the same position gets in any
# longer full pass, so a stack of bodies can stand in for per-example passes.
# numpy sends a product whose left operand has one row to BLAS's
# matrix-vector routine, which rounds differently from the same row inside a
# matrix product, so every product of a pass runs on two copies of such a row
# (``_exact_matmul``).  A layer that runs one query per body (an ``n == 1``
# pass, or the top layer of a ``last_only`` pass, which runs each body's last
# row only) builds no causal mask, since that query sees every key.  So the
# last row of a ``last_only`` pass has the bits of the same row of a full pass.
# The backward runs its six dense products the same way, on contiguous
# transposed copies of the weights built once (on a transposed view, a row's
# bits would depend on how many rows its product has).  Its attention
# products run per body and head.  So a member's backward rows and key/value
# gradients have the same bits in any stack, a stack of one included.
# The backward of an extension returns its key and value gradients as one array
# with the stack as its member axis (the third), and a full pass sums a
# ``d_past`` over that axis: numpy adds the slices of a contiguous array's
# member axis one after another, whether the axis leads or not, so per-member
# gradients held apart and stacked again later sum to the same bits.

def _exact_matmul(a, b):
    """``a @ b``, with a one-row left operand run on two copies of its row."""
    if a.shape[-2] == 1:
        return (np.concatenate([a, a], axis=-2) @ b)[..., :1, :]
    return a @ b


def _softmax_rows(scores):
    # rows may contain -inf from the causal mask; every row keeps >= 1 finite entry.
    # The normalizer is a running sum, key by key in order, so the masked zeros
    # after a query never regroup the sum: a causal prefix gets bitwise the same
    # states whatever follows it, which lets energies read the prompt segment of
    # any example's pass as the prompt's own pass.
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / np.cumsum(e, axis=-1)[..., -1:]


class TinyCausalLM:
    """A fixed-weight causal transformer small enough for desk-scale oracles.

    Pre-norm blocks (attention then GELU MLP), learned positional embeddings,
    layer norms without gain or bias, and an output layer tied to the
    embedding table: ``logits = hidden @ E.T``.
    All arithmetic is float64 and fully deterministic, so identical inputs
    give bitwise-identical outputs.  Instances are read-only after
    construction and safe to share across concurrent chains.

    There is one configuration, the class constants below: ``REFERENCE_VOCAB``,
    24 dimensions, 2 layers, 4 heads and 160 positions.  Only the weights
    vary, drawn from the seed, and the same seed always yields identical
    weights; ``make_reference_model`` names the class.  Every vocabulary
    entry reads back as itself, one token, through :meth:`tokenize`, so
    ``tokenize(decode(ids)) == ids`` holds for any ids.
    """

    dim, n_layers, n_heads, max_len = 24, 2, 4, 160
    token_text = REFERENCE_VOCAB
    vocab_size = len(REFERENCE_VOCAB)
    _index = {t: i for i, t in enumerate(REFERENCE_VOCAB)}
    pad_id, unk_id = _index["<pad>"], _index["<unk>"]
    special_token_ids = frozenset({pad_id, unk_id})
    # stand-in for "most frequent non-special token"; the toy vocabulary
    # has no corpus statistics, so the first non-special entry plays that role
    neutral_token_id = min(set(range(vocab_size)) - special_token_ids)

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        d, v = self.dim, self.vocab_size
        self._E = rng.normal(0.0, 1.0 / np.sqrt(d), (v, d))
        self._pos = rng.normal(0.0, 0.5 / np.sqrt(d), (self.max_len, d))
        self._layers = []
        for _ in range(self.n_layers):
            self._layers.append({
                "Wq": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "Wk": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "Wv": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "Wo": rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)),
                "W1": rng.normal(0.0, 1.0 / np.sqrt(d), (d, 4 * d)),
                "W2": rng.normal(0.0, 1.0 / np.sqrt(4 * d), (4 * d, d)),
            })
        for lw in self._layers:  # the backward's operands: contiguous transposes
            lw.update({name + "T": np.ascontiguousarray(lw[name].T) for name in list(lw)})
        self._table = EmbeddingTable(entries=self._E, token_text=self.token_text)

    # -- text interface -------------------------------------------------

    def tokenize(self, text: str) -> list[int]:
        """Lowercased word-level tokenization; out-of-vocabulary words map to
        <unk>, and the texts ``<pad>`` and ``<unk>`` read as those tokens."""
        return [self._index.get(w, self.unk_id) for w in _WORD_RE.findall(text.lower())]

    def decode(self, ids: Sequence[int]) -> str:
        return " ".join(self.token_text[i] for i in ids)

    def embedding_table(self) -> EmbeddingTable:
        return self._table

    # -- numeric interface ------------------------------------------------

    def forward(self, X: np.ndarray, past: dict | None = None, *,
                last_only: bool = False) -> ForwardPass:
        """Run the model on a matrix of input embeddings.

        ``X`` has one row per position; prompt rows may be arbitrary soft
        vectors while body rows are usually copies of embedding-table rows.

        ``past`` is the ``cache`` of an earlier pass over the positions that
        precede ``X``.  Only the rows of ``X`` are then run: they sit at
        positions ``past["L"]`` onwards and attend over the cached keys and
        values.  The result holds hidden states and logits for those rows
        only, and a cache covering every position, so passes chain.

        ``X`` may also be a stack ``(G, n, d)`` of ``G`` equal-length
        bodies, each run as its own pass; hidden states and logits are then
        ``(G, n, d)`` and ``(G, n, V)``.  With ``past``, every body extends
        the same 2-D pass, or, when ``past`` is the cache of a stack of the
        same ``G`` members, each body extends its own member.  Any other
        ``past`` is a ``ConfigurationError``.

        With ``last_only``, the top layer runs each body's last row only past
        its keys and values: hidden states and logits are ``(G, 1, .)``, or
        ``(1, .)`` for a 2-D pass, with the bits of the last rows of the full
        pass, and the cache still serves as ``past`` and for
        ``backward_input``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim not in (2, 3) or X.shape[-1] != self.dim:
            raise ConfigurationError(
                f"input must be L x {self.dim} or G x n x {self.dim}, got shape {X.shape}"
            )
        lead, n = X.shape[:-2], X.shape[-2]
        if past is not None and past["lead"] not in ((), lead):
            raise ConfigurationError(
                f"past is the cache of a stack of {past['lead'][0]}; it extends "
                f"a stack of the same members, not input of shape {X.shape}"
            )
        start = 0 if past is None else past["L"]
        L = start + n
        if n < 1 or L > self.max_len:
            raise ConfigurationError(f"sequence length {L} outside [1, {self.max_len}]")

        H, dh = self.n_heads, self.dim // self.n_heads
        scale = 1.0 / np.sqrt(dh)
        # row i is position start + i: it sees keys 0 .. start + i
        mask = np.triu(np.full((n, L), -np.inf), k=start + 1) if n > 1 else None
        past_layers = past["layers"] if past is not None else [None] * self.n_layers
        per_head = (*lead, n, H, dh)
        top = self._layers[-1] if last_only and n > 1 else None

        x = (X + self._pos[start:L]).reshape(-1, self.dim)
        layer_caches = []
        for lw, pc in zip(self._layers, past_layers):
            a, ln1 = _layernorm_forward(x)
            k = _exact_matmul(a, lw["Wk"]).reshape(per_head).swapaxes(-2, -3)
            v = _exact_matmul(a, lw["Wv"]).reshape(per_head).swapaxes(-2, -3)
            if pc is not None:
                pk = np.broadcast_to(pc["k"], (*lead, *pc["k"].shape[-3:]))
                pv = np.broadcast_to(pc["v"], (*lead, *pc["v"].shape[-3:]))
                k = np.concatenate([pk, k], axis=-2)
                v = np.concatenate([pv, v], axis=-2)
            queries = n
            if lw is top:  # one query per body: each body's last row
                x, a, queries = x[n - 1::n], a[n - 1::n], 1
            q = _exact_matmul(a, lw["Wq"]).reshape(*lead, queries, H, dh).swapaxes(-2, -3)
            scores = _exact_matmul(q, k.swapaxes(-1, -2)) * scale
            if queries > 1:
                scores += mask
            A = _softmax_rows(scores)
            o = _exact_matmul(A, v).swapaxes(-2, -3).reshape(-1, self.dim)
            x = x + _exact_matmul(o, lw["Wo"])

            f, ln2 = _layernorm_forward(x)
            z1 = _exact_matmul(f, lw["W1"])
            gate = 0.5 * (1.0 + erf(z1 * _GELU_C))
            x = x + _exact_matmul(z1 * gate, lw["W2"])
            layer_caches.append({"ln1": ln1, "ln2": ln2, "q": q, "k": k, "v": v,
                                 "A": A, "z1": z1, "gate": gate})

        hidden, lnf = _layernorm_forward(x)
        logits = _exact_matmul(hidden, self._E.T)
        if not np.all(np.isfinite(logits)):
            raise ModelFault("model produced non-finite logits")
        return ForwardPass(hidden=hidden.reshape(*lead, -1, self.dim),
                           logits=logits.reshape(*lead, -1, self.vocab_size),
                           cache={"layers": layer_caches, "lnf": lnf, "L": L,
                                  "start": start, "lead": lead})

    def backward_input(self, cache: dict, d_hidden: np.ndarray, *,
                       d_past: np.ndarray | None = None):
        """Vector-Jacobian product from a gradient w.r.t. ``hidden`` back to
        the input rows.

        ``d_hidden`` has exactly the shape of the pass's ``hidden``
        (``(G, 1, d)`` for a ``last_only`` stack); any other shape is a
        ``ConfigurationError``.  A gradient w.r.t. the logits enters it
        through the tied output layer, times the embedding table ``E``.

        On the cache of a full pass it returns the gradient w.r.t. the input
        rows.  ``d_past`` then adds gradients w.r.t. the pass's own attention
        keys and values, one array ``(n_layers, 2, K, H, L, dh)``: per layer
        the key and the value gradients of ``K`` members, summed over the
        member axis one after another, in order.  An extension of this pass
        returns such a ``d_past``.

        On the cache of an extension it returns ``(d_rows, d_past)``: the
        gradient w.r.t. the rows it ran, and the gradients w.r.t. the keys
        and values of the extended pass, one per member, as one array
        ``(n_layers, 2, G, H, start, dh)`` (``G = 1`` for a 2-D extension).
        Passing that ``d_past`` to the extended pass's own backward completes
        the gradient (exact by linearity), with the bits of summing it over
        the stack first.  A stack's cache takes no ``d_past``: that is a
        ``ConfigurationError``.  An extension's ``d_hidden`` may also stack
        ``R`` gradients on a leading axis, ``(R, *hidden.shape)``; both
        results then lead with that axis, and each of the ``R`` has the bits
        of its own call.

        On a ``last_only`` cache the rows the top layer did not run past its
        keys and values get no gradient through its queries and outputs.
        """
        start, L, lead = cache["start"], cache["L"], cache["lead"]
        if d_past is not None and lead:
            raise ConfigurationError("d_past needs the cache of a 2-D pass, not of a stack")
        n = L - start
        H, dh = self.n_heads, self.dim // self.n_heads
        scale = 1.0 / np.sqrt(dh)

        def rows(y):  # (..., H, n, dh) -> (*sides, rows, d)
            return y.swapaxes(-2, -3).reshape(*sides, -1, self.dim)

        # a layer's queries per body: n, or 1 for the top layer of a last_only pass
        queries = [lc["q"].shape[-2] for lc in cache["layers"]]
        d_hidden = np.ascontiguousarray(d_hidden, dtype=np.float64)
        own = (*lead, queries[-1], self.dim)
        sides = d_hidden.shape[:d_hidden.ndim - len(own)]  # (R,) with R gradients
        if (d_hidden.shape[len(sides):] != own
                or len(sides) > (start > 0 and d_past is None)):
            raise ConfigurationError(
                f"d_hidden has shape {d_hidden.shape}, the pass returned hidden "
                f"states of shape {own}"
            )
        dx = _layernorm_backward(d_hidden.reshape(*sides, -1, self.dim), cache["lnf"])

        d_past_in = d_past if d_past is not None else [None] * self.n_layers
        d_past_out = []
        for lw, lc, dp, nq in zip(reversed(self._layers), reversed(cache["layers"]),
                                  reversed(d_past_in), reversed(queries)):
            dg1v = _exact_matmul(dx, lw["W2T"])
            dz1 = dg1v * _gelu_prime(lc["z1"], lc["gate"])
            df = _exact_matmul(dz1, lw["W1T"])
            dx = dx + _layernorm_backward(df, lc["ln2"])

            do = _exact_matmul(dx, lw["WoT"]).reshape(*sides, *lead, nq, H, dh).swapaxes(-2, -3)
            A, q, k, v = lc["A"], lc["q"], lc["k"], lc["v"]
            dA = do @ v.swapaxes(-1, -2)
            dv = A.swapaxes(-1, -2) @ do
            dscores = A * (dA - (dA * A).sum(axis=-1, keepdims=True))
            dq = dscores @ k * scale
            dk = dscores.swapaxes(-1, -2) @ q * scale
            if dp is not None:
                dk, dv = dk + dp[0].sum(axis=0), dv + dp[1].sum(axis=0)
            if start:
                d_past_out.append((dk[..., :start, :], dv[..., :start, :]))
                dk, dv = dk[..., start:, :], dv[..., start:, :]
            da_q = _exact_matmul(rows(dq), lw["WqT"])
            if nq < n:  # back from each body's last row to every row
                dx, da_q = _spread(dx, n), _spread(da_q, n)
            da = (da_q + _exact_matmul(rows(dk), lw["WkT"])
                  + _exact_matmul(rows(dv), lw["WvT"]))
            dx = dx + _layernorm_backward(da, lc["ln1"])
        dx = dx.reshape(*sides, *lead, n, self.dim)
        if start:
            d_past = np.stack([np.stack(kv) for kv in d_past_out[::-1]])
            d_past = d_past.reshape(self.n_layers, 2, *sides, -1, H, start, dh)
            return dx, np.moveaxis(d_past, 2, 0) if sides else d_past
        return dx


def _spread(last, n):
    """Rows ``(..., G, d)`` placed as the last of every ``n`` rows, zeros elsewhere."""
    out = np.zeros((*last.shape[:-2], last.shape[-2] * n, last.shape[-1]))
    out[..., n - 1::n, :] = last
    return out


# the reference model under its documented name: ``make_reference_model(seed)``
make_reference_model = TinyCausalLM


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
    try:
        return _ADAPTER_SCHEMES[scheme](arg)
    except ValueError as exc:  # an argument the loader cannot take: ``reference:-1``
        raise ConfigurationError(f"invalid adapter spec {spec!r}: {exc}") from None


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


def _logsumexp(rows: np.ndarray) -> np.ndarray:
    """``log(sum(exp(rows)))`` over the last axis of finite rows, bitwise what
    ``scipy.special.logsumexp(rows, axis=-1)`` gives as of scipy 1.17, without
    its array-API dispatch: the maxima are taken out of the sum (Blanchard,
    Higham and Higham, IMA J. Numer. Anal. 2021)."""
    top = rows.max(axis=-1, keepdims=True)
    at_top = rows == top
    m = at_top.sum(axis=-1, keepdims=True, dtype=rows.dtype)
    s = np.exp(np.where(at_top, -np.inf, rows) - top).sum(axis=-1, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + top)[..., 0]


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


def _read_pass(model, X: np.ndarray, past: dict | None = None):
    """A forward-only pass over a stack ``X`` ``(G, n, d)`` of equal-length
    contexts that reads out each one's last position.

    Returns ``(cache, logits)``: a cache that can serve as the next
    ``past``, and the ``(G, V)`` last-row logits.  ``past`` is such a cache
    over the leading rows of ``X``, at least one row short of it.  When the
    adapter extends passes, only the rows after it are run, as one stack
    whose top layer runs the last row only; otherwise each context is run as
    a full 2-D pass, and the cache is None.
    """
    if not _extends(model):
        return None, np.stack([model.forward(x).logits[-1] for x in X])
    start = 0 if past is None else past["L"]
    fw = model.forward(X[:, start:], past=past, last_only=True)
    return fw.cache, fw.logits[:, -1]


# A stack of bodies on the read path holds at most this many positions,
# prompt rows included, so scoring a large dataset peaks at the memory of a
# small one.
_STACK_POSITIONS = 128


def _label_probs(prompt: SoftPrompt | None, texts: Sequence, task, model) -> np.ndarray:
    """Restricted label softmax after prompt + each rendered text, ``(len(texts), |Y|)``.

    ``texts`` holds texts or examples; an example rendered earlier keeps its
    token ids (see :func:`~promptsearch.tasks._token_ids`).

    On an adapter that extends passes, a prompt's own pass is run once; the
    rendered bodies are grouped by length and each group runs as stacks of
    at most ``_STACK_POSITIONS`` positions (prompt rows included), which
    extend the prompt's pass or, with no prompt, are full passes.  An empty
    body reads the prompt pass's last row.  Every one of these passes runs
    its top layer on the label rows only.  Only adapters that do not extend
    passes get one full pass per example.  Every row is bitwise the one a
    full pass gives.
    """
    vids = verbalizer_token_ids(task, model)
    seqs = [_token_ids(task, text, model) for text in texts]
    probs = np.empty((len(seqs), len(vids)))
    table = model.embedding_table()
    _check_input(prompt, seqs, table)
    if not _extends(model):
        for i, seq in enumerate(seqs):
            fw = model.forward(_input_matrix(prompt, seq, model))
            probs[i] = _restricted_softmax(fw.logits[-1], vids)
        return probs
    head = None if prompt is None else model.forward(prompt.entries, last_only=True)
    past, m = (None, 0) if head is None else (head.cache, prompt.length)
    for idx in _by_length(seqs):
        n = len(seqs[idx[0]])
        if n == 0:
            probs[idx] = _restricted_softmax(head.logits[-1], vids)
            continue
        size = max(1, _STACK_POSITIONS // (m + n))
        for s in range(0, len(idx), size):
            stack = idx[s:s + size]
            fw = model.forward(table.entries[np.array([seqs[i] for i in stack])],
                               past=past, last_only=True)
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
    return SoftPrompt(entries=table.entries[list(ids)], token_ids=tuple(ids))
