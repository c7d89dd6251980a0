"""Nearest-row projection: exhaustive-scan agreement, ties, idempotence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nearest_row_scan
from promptsearch.errors import ConfigurationError
from promptsearch.model import EmbeddingTable, SoftPrompt, make_reference_model
from promptsearch.projection import allowed_token_ids, project, project_subset


def random_prompt(rng, m, d, scale=1.0):
    return SoftPrompt(entries=rng.normal(size=(m, d)) * scale)


def test_project_agrees_with_exhaustive_scan(model):
    table = model.embedding_table()
    rng = np.random.default_rng(0)
    prompt = random_prompt(rng, 300, table.dim, scale=0.3)
    got = project(prompt, table)
    for i, row in enumerate(prompt.entries):
        assert got.token_ids[i] == nearest_row_scan(row, table.entries,
                                                    range(table.rows))


def test_project_output_rows_are_exact_table_rows(model):
    table = model.embedding_table()
    prompt = random_prompt(np.random.default_rng(1), 16, table.dim)
    got = project(prompt, table)
    for i, tid in enumerate(got.token_ids):
        assert np.array_equal(got.entries[i], table.entries[tid])


def test_project_idempotent_bitwise(model):
    table = model.embedding_table()
    prompt = random_prompt(np.random.default_rng(2), 32, table.dim)
    once = project(prompt, table)
    twice = project(once, table)
    assert once.token_ids == twice.token_ids
    assert np.array_equal(once.entries, twice.entries)


def test_tie_breaks_to_lowest_id():
    # two identical rows: both are nearest, the lower index must win
    entries = np.array([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
    table = EmbeddingTable(entries=entries, token_text=("a", "b", "c", "d"))
    prompt = SoftPrompt(entries=np.array([[1.1, 0.9]]))
    assert project(prompt, table).token_ids == (1,)


def test_equidistant_tie_breaks_to_lowest_id():
    entries = np.array([[0.0, 0.0], [2.0, 0.0]])
    table = EmbeddingTable(entries=entries, token_text=("a", "b"))
    prompt = SoftPrompt(entries=np.array([[1.0, 0.0]]))  # exactly between
    assert project(prompt, table).token_ids == (0,)


def test_project_subset_agrees_with_restricted_scan(model):
    table = model.embedding_table()
    rng = np.random.default_rng(3)
    allowed = rng.choice(table.rows, size=17, replace=False)
    prompt = random_prompt(rng, 40, table.dim, scale=0.3)
    got = project_subset(prompt, table, allowed)
    for i, row in enumerate(prompt.entries):
        assert got.token_ids[i] == nearest_row_scan(row, table.entries,
                                                    sorted(int(a) for a in allowed))
    assert set(got.token_ids) <= {int(a) for a in allowed}


def test_project_subset_reads_every_form_of_allowed_ids(model):
    """An ndarray, list, tuple, range or set of the same ids, in any order
    and with repeats, gives the same projection."""
    table = model.embedding_table()
    prompt = random_prompt(np.random.default_rng(5), 12, table.dim, scale=0.3)
    ids = list(range(7, 40, 3))
    want = project_subset(prompt, table, np.array(ids))
    assert set(want.token_ids) <= set(ids)
    for form in (ids, ids[::-1] + ids[:2], tuple(ids), range(7, 40, 3), set(ids),
                 np.array(ids[::-1], dtype=np.int32)):
        got = project_subset(prompt, table, form)
        assert got.token_ids == want.token_ids
        assert np.array_equal(got.entries, want.entries)


def test_project_subset_validation(model):
    table = model.embedding_table()
    prompt = random_prompt(np.random.default_rng(4), 2, table.dim)
    with pytest.raises(ConfigurationError):
        project_subset(prompt, table, [])
    with pytest.raises(ConfigurationError):
        project_subset(prompt, table, [table.rows])
    with pytest.raises(ConfigurationError):
        project_subset(prompt, table, [-1])


def test_dim_mismatch_rejected(model):
    table = model.embedding_table()
    prompt = SoftPrompt(entries=np.zeros((2, table.dim + 1)))
    with pytest.raises(ConfigurationError):
        project(prompt, table)
    with pytest.raises(ConfigurationError):
        project_subset(prompt, table, [0])


def test_allowed_token_ids_policies(model):
    full = allowed_token_ids(model, "all")
    assert list(full) == list(range(model.vocab_size))
    clean = allowed_token_ids(model, "no-special")
    assert model.pad_id not in clean and model.unk_id not in clean
    assert len(clean) == model.vocab_size - 2
    with pytest.raises(ConfigurationError):
        allowed_token_ids(model, "everything")


def test_no_special_projection_never_emits_specials(model):
    table = model.embedding_table()
    rng = np.random.default_rng(5)
    # target rows near the special embeddings on purpose
    near_special = table.entries[[model.pad_id, model.unk_id]] + \
        rng.normal(size=(2, table.dim)) * 1e-3
    got = project_subset(SoftPrompt(entries=near_special), table,
                         allowed_token_ids(model, "no-special"))
    assert not set(got.token_ids) & set(model.special_token_ids)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_projection_is_distance_optimal(seed, m):
    model = make_reference_model(0)
    table = model.embedding_table()
    rng = np.random.default_rng(seed)
    prompt = SoftPrompt(entries=rng.normal(size=(m, table.dim)) * 0.4)
    got = project(prompt, table)
    # no table row may be strictly closer than the chosen one
    challenger = int(rng.integers(table.rows))
    for i in range(m):
        chosen = prompt.entries[i] - table.entries[got.token_ids[i]]
        other = prompt.entries[i] - table.entries[challenger]
        assert float(chosen @ chosen) <= float(other @ other)
