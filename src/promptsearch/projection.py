"""Nearest-neighbor projection of soft prompt rows onto the embedding table.

Each row is replaced by the table row minimizing exact Euclidean distance;
ties go to the lowest vocabulary index, so repeated projection of the same
input is always bit-identical and projection is idempotent.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .model import EmbeddingTable, SoftPrompt

__all__ = ["project", "project_subset", "allowed_token_ids"]


def _nearest_rows(entries: np.ndarray, table: EmbeddingTable,
                  candidate_ids: np.ndarray) -> list[int]:
    diff = table.entries[candidate_ids] - entries[:, None]
    # argmin over ascending candidate ids: first minimum = lowest token id
    nearest = np.argmin(np.einsum("mvd,mvd->mv", diff, diff), axis=1)
    return candidate_ids[nearest].tolist()


def project(prompt: SoftPrompt, table: EmbeddingTable) -> SoftPrompt:
    """Snap every prompt row to its nearest embedding-table row.

    Output rows are exact copies of table rows and ``token_ids`` is filled in.
    """
    return project_subset(prompt, table, range(table.rows))


def project_subset(prompt: SoftPrompt, table: EmbeddingTable,
                   allowed_ids: Iterable[int]) -> SoftPrompt:
    """As :func:`project`, with the argmin restricted to ``allowed_ids``."""
    if prompt.dim != table.dim:
        raise ConfigurationError(
            f"prompt dim {prompt.dim} does not match table dim {table.dim}"
        )
    allowed = np.unique(np.asarray(list(allowed_ids), dtype=np.intp))
    if allowed.size == 0:
        raise ConfigurationError("allowed_ids must be nonempty")
    if allowed[0] < 0 or allowed[-1] >= table.rows:
        raise ConfigurationError("allowed_ids contains out-of-vocabulary indices")
    ids = _nearest_rows(prompt.entries, table, allowed)
    return SoftPrompt(entries=table.entries[ids], token_ids=tuple(ids))


def allowed_token_ids(model, policy: str = "no-special") -> np.ndarray:
    """Resolve a projection vocabulary policy against an adapter.

    ``no-special`` (default) excludes the adapter's special tokens, which are
    not readable prompt material; ``all`` keeps the full vocabulary.
    """
    n = model.embedding_table().rows
    if policy == "all":
        return np.arange(n)
    if policy == "no-special":
        special = getattr(model, "special_token_ids", frozenset())
        return np.array([i for i in range(n) if i not in special], dtype=np.intp)
    raise ConfigurationError(f"unknown allowed-vocab policy {policy!r}")
