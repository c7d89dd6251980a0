"""Task specs, rendering, verbalizer resolution, dataset loading."""

import json

import pytest

from promptsearch.errors import DataError, TaskSpecError, UsageError
from promptsearch.tasks import (
    Example,
    TaskSpec,
    builtin_tasks,
    load_dataset,
    render,
    task_from_file,
    verbalizer_token_ids,
)


def make_task(**overrides):
    base = dict(id="t", template="{x} it was",
                verbalizer={"pos": "good", "neg": "bad"},
                domain_string="this is a review",
                domain_words=("Review", "MOVIE"))
    base.update(overrides)
    return TaskSpec(**base)


# -- TaskSpec validation ---------------------------------------------------

def test_template_needs_exactly_one_slot():
    with pytest.raises(TaskSpecError):
        make_task(template="no slot here")
    with pytest.raises(TaskSpecError):
        make_task(template="{x} and {x}")


def test_verbalizer_needs_two_distinct_labels():
    with pytest.raises(TaskSpecError):
        make_task(verbalizer={"only": "good"})
    with pytest.raises(TaskSpecError):
        make_task(verbalizer={"a": "good", "b": "good"})


def test_domain_string_nonempty():
    with pytest.raises(TaskSpecError):
        make_task(domain_string="")


def test_domain_words_lowercased_and_labels_ordered():
    t = make_task()
    assert t.domain_words == ("review", "movie")
    assert t.labels == ("pos", "neg")


# -- rendering ----------------------------------------------------------------

def words(ids, model):
    return [model.token_text[i] for i in ids]


def test_render_tokenizes_input_and_cue_separately(model):
    assert words(render(make_task(), "great fun", model), model) == [
        "great", "fun", "it", "was"]
    # joined, "itwas" would be one out-of-vocabulary word
    assert render(make_task(template="{x}was"), "it", model) == (
        model.tokenize("it") + model.tokenize("was"))


def test_render_with_text_before_slot(model):
    assert words(render(make_task(template="the {x} it was"), "movie", model),
                 model) == ["the", "movie", "it", "was"]
    # text before the slot is tokenized together with the input
    assert words(render(make_task(template="th{x} it was"), "e movie", model),
                 model) == ["the", "movie", "it", "was"]


def test_render_empty_input_keeps_cue(model):
    assert words(render(make_task(), "", model), model) == ["it", "was"]


# -- verbalizer resolution -------------------------------------------------------

def test_verbalizer_token_ids_in_label_order(model):
    t = make_task()
    vids = verbalizer_token_ids(t, model)
    assert [model.token_text[i] for i in vids] == ["good", "bad"]


def test_multi_token_label_word_rejected(model):
    t = make_task(verbalizer={"pos": "good good", "neg": "bad"})
    with pytest.raises(TaskSpecError):
        verbalizer_token_ids(t, model)


def test_oov_label_word_rejected(model):
    t = make_task(verbalizer={"pos": "zorkish", "neg": "bad"})
    with pytest.raises(TaskSpecError):
        verbalizer_token_ids(t, model)


def test_colliding_label_words_rejected(model):
    # distinct strings that tokenize to the same id (case folding)
    t = make_task(verbalizer={"pos": "good", "neg": "GOOD"})
    with pytest.raises(TaskSpecError):
        verbalizer_token_ids(t, model)


# -- built-in tasks -----------------------------------------------------------------

def test_builtin_tasks_all_validate_on_reference(model):
    tasks = builtin_tasks()
    assert [t.id for t in tasks] == ["sst2", "amazon", "agnews"]
    for t in tasks:
        assert len(verbalizer_token_ids(t, model)) == len(t.labels)


def builtin(name):
    return {t.id: t for t in builtin_tasks()}[name]


def test_sst2_domain_words_carry_both_spellings():
    words = builtin("sst2").domain_words
    assert "cinima" in words and "cinema" in words


def test_agnews_has_four_labels():
    assert len(builtin("agnews").labels) == 4


def test_builtin_task_unknown_name():
    from promptsearch.cli import _resolve_task

    with pytest.raises(UsageError, match="sst2"):
        _resolve_task({"task": "imdb", "task_file": None})


# -- task files -----------------------------------------------------------------------

def test_task_from_file_round_trip(tmp_path):
    t = make_task()
    path = tmp_path / "task.json"
    path.write_text(json.dumps({
        "id": t.id, "template": t.template, "verbalizer": t.verbalizer,
        "domain_string": t.domain_string, "domain_words": list(t.domain_words),
    }))
    loaded = task_from_file(path)
    assert loaded == t


def test_task_from_file_missing_field(tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"id": "t", "template": "{x}"}))
    with pytest.raises(TaskSpecError):
        task_from_file(path)


def test_task_from_file_domain_words_optional(tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({
        "id": "t", "template": "{x} cue",
        "verbalizer": {"a": "good", "b": "bad"}, "domain_string": "d",
    }))
    assert task_from_file(path).domain_words == ()


# -- dataset loading -------------------------------------------------------------------

def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def test_load_dataset_preserves_order_and_labels(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"text": "a", "label": "pos"},
                       {"text": "b", "label": "neg"},
                       {"text": "c"}])
    got = load_dataset(path)
    assert got == [Example("a", "pos"), Example("b", "neg"), Example("c", None)]


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "a"}\n\n   \n{"text": "b"}\n')
    assert [e.text for e in load_dataset(path)] == ["a", "b"]


def test_load_dataset_validates_labels_against_task(tmp_path):
    t = make_task()
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"text": "a", "label": "nope"}])
    with pytest.raises(DataError) as err:
        load_dataset(path, t)
    assert "line 1" in str(err.value)


def test_load_dataset_reports_bad_json_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "a"}\n{bad json\n')
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "line 2" in str(err.value)


def test_load_dataset_requires_text_field(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"label": "pos"}])
    with pytest.raises(DataError):
        load_dataset(path)
