"""Task specs, rendering, verbalizer resolution, dataset loading."""

import json

import pytest

from promptsearch.errors import DataError, TaskSpecError, UsageError
from promptsearch.synthetic import synthetic_task
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
    """Every word a built-in or the synthetic task renders (template,
    domain string, domain words, label words) is a reference token."""
    tasks = builtin_tasks()
    assert [t.id for t in tasks] == ["sst2", "amazon", "agnews"]
    for t in tasks + [synthetic_task()]:
        assert len(verbalizer_token_ids(t, model)) == len(t.labels)
        texts = [t.template.replace("{x}", ""), t.domain_string, *t.domain_words,
                 *t.verbalizer.values()]
        words = " ".join(texts).split()
        assert words and [w for w in words if model.unk_id in model.tokenize(w)] == []


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
    with pytest.raises(UsageError, match="synthetic-2label"):
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


@pytest.mark.parametrize("text", [None, 5, ["a"]])
def test_load_dataset_refuses_a_text_that_is_not_a_string(tmp_path, text):
    """A null or numeric text is an error naming its line, not the example
    ``"None"`` or ``"5"``; labels keep their ``str()`` coercion."""
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"text": "fine", "label": 1}, {"text": text, "label": "pos"}])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "line 2" in str(err.value) and "text" in str(err.value)
    write_jsonl(path, [{"text": "fine", "label": 1}])
    assert load_dataset(path) == [Example("fine", "1")]


@pytest.mark.parametrize("field, value", [
    ("id", 5), ("template", 5), ("domain_string", None),
    ("verbalizer", "ab"), ("verbalizer", [["pos", "good"], ["neg", "bad"]]),
    ("verbalizer", {"pos": 1, "neg": "bad"}),
    ("domain_words", "review"), ("domain_words", ["review", 5]),
    ("domain_words", {"review": 1}), ("domain_words", 5),
])
def test_task_spec_refuses_fields_of_the_wrong_type(field, value):
    """A one-string ``domain_words`` was once taken as its letters."""
    with pytest.raises(TaskSpecError, match=field):
        make_task(**{field: value})


def test_task_spec_takes_domain_words_as_a_list():
    assert make_task(domain_words=["Review"]).domain_words == ("review",)


@pytest.mark.parametrize("word", ["", " review ", "good movie", "a\tb", "\n"])
def test_task_spec_refuses_a_domain_word_that_is_not_a_word(word):
    """An empty word once counted every word boundary of a text, and a word
    holding a space never matched."""
    with pytest.raises(TaskSpecError, match="domain_words must be words"):
        make_task(domain_words=["review", word])


# -- reading input files -----------------------------------------------------------------

def test_load_dataset_splits_lines_as_file_iteration_does(tmp_path):
    """``\\r\\n`` and ``\\r`` end a line; U+0085 and U+2028 inside a JSON
    string do not, so the line numbers stay those of iterating the file."""
    path = tmp_path / "d.jsonl"
    path.write_bytes('{"text": "a"}\r\n{"text": "b\u0085c"}\r{"text": "d e"}\n'
                     '{bad\n'.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert len(list(fh)) == 4
    with pytest.raises(DataError, match="line 4"):
        load_dataset(path)
    path.write_bytes(path.read_bytes()[:-len(b"{bad\n")])
    assert [e.text for e in load_dataset(path)] == ["a", "b\u0085c", "d e"]


@pytest.mark.parametrize("reader, error, content", [
    (load_dataset, DataError, None), (load_dataset, DataError, b"\xff\xfe{}"),
    (task_from_file, TaskSpecError, None), (task_from_file, TaskSpecError, b"\xff\xfe{}"),
    (task_from_file, TaskSpecError, b"[]"), (task_from_file, TaskSpecError, b"{"),
])
def test_unreadable_or_malformed_input_file_is_an_error_naming_it(tmp_path, reader,
                                                                   error, content):
    """A directory (``content`` None), a file that is not UTF-8, and a task
    file that is not a JSON object raise the reader's own error class,
    naming the file."""
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(error) as err:
        reader(path)
    assert str(path) in str(err.value)
