"""Projected Langevin dynamics over prompt embeddings.

One chain performs ``steps`` updates of the form

    prompt <- project(prompt - eta * g + sqrt(2 * eta * beta_i) * z)

where ``g`` is the energy gradient (optionally Adam-preconditioned), ``z`` is
a fresh standard-normal draw per step/position, and ``beta_i`` follows a
geometric schedule from ``beta_start`` down to ``beta_end``.  Setting both
endpoints to 0 with the ``plain`` optimizer recovers pure projected gradient
descent; the noise draw still happens every step so chains that differ only
in beta share the same noise stream.

Reproducibility contract (what an independent reimplementation needs):

* ``np.random.SeedSequence(cfg.seed).spawn(2)`` yields the noise stream and
  the shuffle stream, in that order; each feeds ``np.random.default_rng``.
* Each epoch draws ``shuffle_rng.permutation(len(data))`` and consumes
  examples in that order; batches are filled continuously across epoch
  boundaries (a batch may straddle two epochs) and every batch has exactly
  ``cfg.batch_size`` examples.
* Per step, the energy/gradient is evaluated at the incoming prompt, the
  noise is drawn as ``noise_rng.standard_normal((M, d))``, and the step log
  stores the pre-update energy with the post-update (projected) token ids.
* Prompt rows start as ``cfg.prompt_length`` copies of the adapter's neutral
  token embedding, unless ``cfg.init_text`` supplies a seed string (tokenized,
  truncated or neutral-padded to length M).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .energies import (EnergyBreakdown, EnergyConfig, _ChainMemo, _rendered,
                       energy_and_grad)
from .errors import ConfigurationError, DataError, ModelFault, NumericalFault, UsageError
from .model import SoftPrompt, prompt_from_ids
from .projection import allowed_token_ids, project_subset
from .tasks import Example, TaskSpec, _read_json_object

__all__ = [
    "NoiseSchedule",
    "beta_at",
    "SamplerConfig",
    "StepLog",
    "ChainRecord",
    "langevin_step",
    "run_chain",
    "select_best",
    "save_record",
    "load_record",
]

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NoiseSchedule:
    """Geometric noise-variance schedule over ``steps`` updates.

    Requires finite ``beta_start >= beta_end > 0``, with the single special
    case ``beta_start == beta_end == 0`` for the noise-free baseline.
    """

    beta_start: float = 1.0
    beta_end: float = 1e-4
    steps: int = 5000

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"schedule needs steps >= 1, got {self.steps}")
        zero = self.beta_start == 0.0 and self.beta_end == 0.0
        if not zero and not math.inf > self.beta_start >= self.beta_end > 0.0:
            raise ConfigurationError(
                "schedule requires finite beta_start >= beta_end > 0 "
                f"(or both exactly 0), got {self.beta_start}, {self.beta_end}"
            )


def beta_at(schedule: NoiseSchedule, i: int) -> float:
    """Noise variance at step ``i``: the geometric interpolant of the endpoints.

    ``beta_i = beta_start * (beta_end / beta_start) ** (i / (steps - 1))``;
    the endpoints are returned exactly.
    """
    n = schedule.steps
    if not 0 <= i < n:
        raise IndexError(f"step index {i} outside [0, {n})")
    if i == 0 or schedule.beta_start == 0.0:
        return schedule.beta_start
    if i == n - 1:
        return schedule.beta_end
    return schedule.beta_start * (schedule.beta_end / schedule.beta_start) ** (i / (n - 1))


@dataclass(frozen=True)
class SamplerConfig:
    """Everything one chain needs besides the task, model, and data."""

    eta: float
    schedule: NoiseSchedule
    steps: int
    batch_size: int
    seed: int
    energy: EnergyConfig
    optimizer: str = "adaptive"  # "plain" | "adaptive"
    prompt_length: int = 10
    init_text: str | None = None
    allowed_vocab: str = "no-special"  # "all" | "no-special"
    model_spec: str | None = None  # informational: adapter locator for the record

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ConfigurationError(f"eta must be positive and finite, got {self.eta}")
        if self.steps < 1 or self.batch_size < 1 or self.prompt_length < 1:
            raise ConfigurationError("steps, batch_size and prompt_length must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.steps != self.schedule.steps:
            raise ConfigurationError(
                f"cfg.steps ({self.steps}) != schedule.steps ({self.schedule.steps})"
            )
        if self.optimizer not in ("plain", "adaptive"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.allowed_vocab not in ("all", "no-special"):
            raise ConfigurationError(f"unknown allowed_vocab {self.allowed_vocab!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SamplerConfig":
        return cls(**{**d, "schedule": NoiseSchedule(**d["schedule"]),
                      "energy": EnergyConfig(**d["energy"])})


@dataclass(frozen=True)
class StepLog:
    """One sampler step: pre-update energy, post-update projected token ids."""

    index: int
    energy: EnergyBreakdown
    token_ids: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"i": self.index,
                "energy": {"total": self.energy.total,
                           "terms": dict(self.energy.per_term)},
                "token_ids": list(self.token_ids)}

    @classmethod
    def from_dict(cls, d: dict) -> "StepLog":
        # ``{**terms}`` takes a JSON object only; dict() would also take a list
        # of pairs, whose keys need not be strings and then cannot be saved
        return cls(index=d["i"],
                   energy=EnergyBreakdown(total=d["energy"]["total"],
                                          per_term={**d["energy"]["terms"]}),
                   token_ids=tuple(d["token_ids"]))


@dataclass(frozen=True)
class ChainRecord:
    """One complete chain: config, trajectory, final prompt, metrics.

    ``fault`` is None for a clean run; a faulted run carries a message and a
    ``per_step`` shorter than ``config.steps`` (the abort policy is to persist
    the partial trajectory rather than clamp bad values).
    """

    config: SamplerConfig
    task_id: str
    per_step: tuple[StepLog, ...]
    final_prompt_text: str
    metrics: dict[str, float] = field(default_factory=dict)
    fault: str | None = None

    @property
    def final_token_ids(self) -> tuple[int, ...]:
        if not self.per_step:
            raise UsageError("chain has no recorded steps")
        return self.per_step[-1].token_ids

    def to_dict(self) -> dict:
        d = {"config": self.config.to_dict(),
             "task_id": self.task_id,
             "steps": [s.to_dict() for s in self.per_step],
             "final_prompt_text": self.final_prompt_text,
             "metrics": dict(self.metrics)}
        if self.fault is not None:
            d["fault"] = self.fault
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ChainRecord":
        return cls(config=SamplerConfig.from_dict(d["config"]),
                   task_id=d["task_id"],
                   per_step=tuple(StepLog.from_dict(s) for s in d["steps"]),
                   final_prompt_text=d["final_prompt_text"],
                   metrics={**d["metrics"]},
                   fault=d.get("fault"))


def _write_json_atomic(path: Path, obj) -> None:
    """Replace ``path`` by ``obj`` as JSON in the records' canonical form,
    never leaving it half-written.

    The text goes to a temp file in the same directory, which ``os.replace``
    then moves over ``path`` in one step; if writing fails, ``path`` keeps
    its old content and the temp file is removed.
    """
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_record(record: ChainRecord, path: str | Path) -> Path:
    """Write the record as canonical JSON (sorted keys, 2-space indent,
    trailing newline) to ``path`` atomically; returns the path."""
    path = Path(path)
    _write_json_atomic(path, record.to_dict())
    return path


def load_record(path: str | Path) -> ChainRecord:
    """Read a record; a file that cannot be read, invalid JSON, a missing or
    rejected field, a ``final_prompt_text`` that is not a string, or a metric
    that is not a finite real number is a ``DataError`` naming the file."""
    try:
        record = ChainRecord.from_dict(_read_json_object(path, "chain record", DataError))
        if not isinstance(record.final_prompt_text, str):
            raise TypeError("final_prompt_text must be a string")
        for name, value in record.metrics.items():
            # a bool is no metric; math.isfinite overflows on a huge int
            if not (type(value) in (int, float) and math.isfinite(value)):
                raise ValueError(f"metric {name!r} must be a finite number")
    except KeyError as e:
        raise DataError(f"chain record {path} lacks field {e}") from None
    except (ValueError, TypeError, OverflowError, ConfigurationError) as e:
        raise DataError(f"malformed chain record {path}: {e}") from None
    return record


def langevin_step(prompt: SoftPrompt, grad: np.ndarray, eta: float, beta: float,
                  noise_source: np.random.Generator, table, *,
                  allowed_ids=None, step_index: int | None = None) -> SoftPrompt:
    """One projected update: gradient step, Gaussian kick, nearest-row snap.

    The noise is drawn unconditionally (even for ``beta == 0``) so the noise
    stream advances identically across schedules.  With ``beta == 0`` the
    result equals ``project(prompt - eta * grad)`` exactly.  An ``eta``
    outside ``(0, inf)`` or a ``beta`` outside ``[0, inf)`` is a
    ``ConfigurationError``, raised before the draw.  A non-finite gradient or
    proposal (a finite but huge ``eta`` or ``beta`` can overflow the noise
    scale) is a ``NumericalFault``, which faults the chain.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != prompt.entries.shape:
        raise ConfigurationError(
            f"gradient shape {grad.shape} != prompt shape {prompt.entries.shape}"
        )
    if not 0 < eta < math.inf:
        raise ConfigurationError(f"eta must be positive and finite, got {eta}")
    if not 0 <= beta < math.inf:
        raise ConfigurationError(f"beta must be finite and >= 0, got {beta}")
    z = noise_source.standard_normal(size=prompt.entries.shape)
    where = "" if step_index is None else f" at step {step_index}"
    if not np.all(np.isfinite(grad)):
        raise NumericalFault(f"non-finite gradient{where}")
    entries = prompt.entries - eta * grad + math.sqrt(2.0 * eta * beta) * z
    if not np.all(np.isfinite(entries)):
        raise NumericalFault(f"non-finite proposal{where}")
    if allowed_ids is None:
        allowed_ids = np.arange(table.rows)
    return project_subset(SoftPrompt(entries=entries), table, allowed_ids)


def _epoch_batches(data: Sequence[Example], batch_size: int,
                   shuffle_rng: np.random.Generator):
    """Yield fixed-size batches forever, reshuffling per epoch, carrying over."""
    n = len(data)
    order = shuffle_rng.permutation(n)
    pos = 0
    while True:
        batch = []
        while len(batch) < batch_size:
            if pos == n:
                order = shuffle_rng.permutation(n)
                pos = 0
            batch.append(data[order[pos]])
            pos += 1
        yield batch


def _initial_prompt(cfg: SamplerConfig, model) -> SoftPrompt:
    if cfg.init_text is None:
        ids = [model.neutral_token_id] * cfg.prompt_length
    else:
        ids = model.tokenize(cfg.init_text)[: cfg.prompt_length]
        ids += [model.neutral_token_id] * (cfg.prompt_length - len(ids))
    return prompt_from_ids(ids, model)


def run_chain(task: TaskSpec, model, cfg: SamplerConfig,
              data_stream: Sequence[Example]) -> ChainRecord:
    """Run one full chain; see the module docstring for the exact contract.

    ``data_stream`` is a finite sequence of examples (labeled for supervised
    energies); it is shuffled and cycled internally.  A non-finite energy,
    gradient or Adam moment, or a model fault, aborts the chain and returns
    the partial record with ``fault`` set; on a clean run ``per_step`` has
    exactly ``cfg.steps`` entries.
    """
    if not data_stream:
        raise UsageError("data_stream must be nonempty")
    table = model.embedding_table()
    allowed = allowed_token_ids(model, cfg.allowed_vocab)
    noise_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    noise_rng = np.random.default_rng(noise_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    # each example is rendered once per chain, not once per step, and the
    # chain's own memo serves steps that repeat what it computed
    batches = _epoch_batches(_rendered(data_stream, task, model, _ChainMemo()),
                             cfg.batch_size, shuffle_rng)

    prompt = _initial_prompt(cfg, model)
    adam_m = np.zeros_like(prompt.entries)
    adam_v = np.zeros_like(prompt.entries)

    steps: list[StepLog] = []
    fault = None
    for i in range(cfg.steps):
        batch = next(batches)
        try:
            breakdown, grad = energy_and_grad(prompt, batch, task, model, cfg.energy)
            if not math.isfinite(breakdown.total):
                raise NumericalFault(f"non-finite energy at step {i}")
            if not np.all(np.isfinite(grad)):
                raise NumericalFault(f"non-finite gradient at step {i}")
            if cfg.optimizer == "adaptive":
                t = i + 1
                adam_m = _ADAM_BETA1 * adam_m + (1.0 - _ADAM_BETA1) * grad
                adam_v = _ADAM_BETA2 * adam_v + (1.0 - _ADAM_BETA2) * grad * grad
                if not np.all(np.isfinite(adam_v)):
                    # an overflowed v would zero the step and freeze the prompt
                    raise NumericalFault(f"non-finite gradient moment at step {i}")
                m_hat = adam_m / (1.0 - _ADAM_BETA1 ** t)
                v_hat = adam_v / (1.0 - _ADAM_BETA2 ** t)
                step_grad = m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
            else:
                step_grad = grad
            prompt = langevin_step(prompt, step_grad, cfg.eta,
                                   beta_at(cfg.schedule, i), noise_rng, table,
                                   allowed_ids=allowed, step_index=i)
        except (ModelFault, NumericalFault) as exc:
            fault = str(exc)
            break
        steps.append(StepLog(index=i, energy=breakdown, token_ids=prompt.token_ids))

    return ChainRecord(config=cfg, task_id=task.id, per_step=tuple(steps),
                       final_prompt_text=model.decode(list(prompt.token_ids)),
                       metrics={}, fault=fault)


def select_best(chains: Sequence[ChainRecord],
                validation_metric: str | Callable[[ChainRecord], float] = "accuracy",
                ) -> ChainRecord:
    """Pick the chain maximizing a validation metric.

    ``validation_metric`` is a key into ``record.metrics`` or a callable on
    the record.  Ties break toward the lowest seed, then the lowest position
    in ``chains``.
    """
    if not chains:
        raise UsageError("select_best needs at least one chain")
    if callable(validation_metric):
        getter = validation_metric
    else:
        def getter(rec: ChainRecord) -> float:
            if validation_metric not in rec.metrics:
                raise UsageError(
                    f"chain (seed {rec.config.seed}) lacks metric {validation_metric!r}"
                )
            return rec.metrics[validation_metric]
    ranked = sorted(range(len(chains)),
                    key=lambda k: (-getter(chains[k]), chains[k].config.seed, k))
    return chains[ranked[0]]
