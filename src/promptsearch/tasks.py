"""Task definitions, dataset ingestion, and input rendering.

A task is fully determined by a template with one ``{x}`` input slot and a
trailing cue, an ordered verbalizer mapping each label to a single-token
label word, a label-neutral domain string, and a list of domain words used
by the diagnostics.  Datasets are JSONL files with one ``{"text": ...,
"label": ...}`` object per line (``label`` optional for unlabeled data).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, TaskSpecError

__all__ = [
    "TaskSpec",
    "Example",
    "render",
    "verbalizer_token_ids",
    "load_dataset",
    "builtin_tasks",
    "task_from_file",
]


@dataclass(frozen=True)
class TaskSpec:
    id: str
    template: str
    verbalizer: dict[str, str]  # ordered label -> label word
    domain_string: str
    domain_words: tuple[str, ...] = ()

    def __post_init__(self):
        if self.template.count("{x}") != 1:
            raise TaskSpecError(
                f"task {self.id!r}: template must contain exactly one {{x}} slot"
            )
        if len(self.verbalizer) < 2:
            raise TaskSpecError(f"task {self.id!r}: need at least 2 labels")
        words = list(self.verbalizer.values())
        if len(set(words)) != len(words):
            raise TaskSpecError(f"task {self.id!r}: label words must be distinct")
        if not self.domain_string:
            raise TaskSpecError(f"task {self.id!r}: domain_string must be nonempty")
        object.__setattr__(self, "domain_words",
                           tuple(w.lower() for w in self.domain_words))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.verbalizer)


@dataclass(frozen=True)
class Example:
    text: str
    label: str | None = None


def render(task: TaskSpec, x: str, model) -> list[int]:
    """Token sequence of the input with the template applied.

    The input segment (with any template text before the slot) and the cue
    after it are tokenized separately and concatenated, so no token spans the
    two.  The next-token position after the final cue token is where label
    logits are read.  The built-in templates join input and cue with a single
    space.
    """
    before, after = task.template.split("{x}")
    return model.tokenize(before + x) + model.tokenize(after)


def verbalizer_token_ids(task: TaskSpec, model) -> list[int]:
    """Vocabulary index of each label word, in verbalizer order.

    Every label word must map to exactly one token under the adapter's own
    tokenizer (including any leading-space convention the adapter applies);
    multi-token or out-of-vocabulary words are task-spec errors.
    """
    unk = getattr(model, "unk_id", None)
    ids = []
    for label, word in task.verbalizer.items():
        toks = model.tokenize(word)
        if len(toks) != 1:
            raise TaskSpecError(
                f"task {task.id!r}: label word {word!r} for label {label!r} "
                f"tokenizes to {len(toks)} tokens; exactly one required"
            )
        if unk is not None and toks[0] == unk and word.lower() != "<unk>":
            raise TaskSpecError(
                f"task {task.id!r}: label word {word!r} is not in the "
                f"adapter's vocabulary"
            )
        ids.append(toks[0])
    if len(set(ids)) != len(ids):
        raise TaskSpecError(f"task {task.id!r}: label words collide after tokenization")
    return ids


def load_dataset(path: str | Path, task: TaskSpec | None = None) -> list[Example]:
    """Read examples from a JSONL file, preserving file order.

    When ``task`` is given, labels are validated against its label set.
    Malformed lines are reported with their 1-based line number.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read dataset {path}: {e.strerror or e}") from e
    examples = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}: line {lineno}: invalid JSON: {e}") from e
            if not isinstance(obj, dict) or "text" not in obj:
                raise DataError(f"{path}: line {lineno}: missing 'text' field")
            label = obj.get("label")
            if label is not None:
                label = str(label)
                if task is not None and label not in task.labels:
                    raise DataError(
                        f"{path}: line {lineno}: unknown label {label!r} "
                        f"(expected one of {list(task.labels)})"
                    )
            examples.append(Example(text=str(obj["text"]), label=label))
    return examples


def builtin_tasks() -> list[TaskSpec]:
    """The three built-in classification tasks.

    The sst2 domain-word list carries both spellings ``cinima`` and
    ``cinema``; the former is kept verbatim from the source word list, the
    latter is an added convenience (see README).
    """
    return [
        TaskSpec(
            id="sst2",
            template="{x} It was",
            verbalizer={"positive": "positive", "negative": "negative"},
            domain_string="This is a movie review",
            domain_words=("movie", "film", "cinima", "cinema", "director",
                          "positive", "negative"),
        ),
        TaskSpec(
            id="amazon",
            template="{x} It was",
            verbalizer={"positive": "positive", "negative": "negative"},
            domain_string="This is an Amazon product review",
            domain_words=("book", "amazon", "product", "furniture",
                          "positive", "negative"),
        ),
        TaskSpec(
            id="agnews",
            template="{x} It is about",
            verbalizer={"politics": "politics", "sports": "sports",
                        "business": "business", "technology": "technology"},
            domain_string="This is a news",
            domain_words=("topic", "category", "politics", "sports",
                          "business", "technology"),
        ),
    ]


def task_from_file(path: str | Path) -> TaskSpec:
    """Load a task from a JSON document mirroring the TaskSpec fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise TaskSpecError(f"cannot read task file {path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise TaskSpecError(f"{path}: invalid JSON: {e}") from e
    try:
        return TaskSpec(
            id=obj["id"],
            template=obj["template"],
            verbalizer=dict(obj["verbalizer"]),
            domain_string=obj["domain_string"],
            domain_words=tuple(obj.get("domain_words", ())),
        )
    except KeyError as e:
        raise TaskSpecError(f"{path}: missing task field {e}") from e
