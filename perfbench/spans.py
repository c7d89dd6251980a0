"""Span tracing of the package's layers from outside, and the per-layer metrics.

The tracer replaces the names that callers look up at call time (module
globals such as ``promptsearch.cli.run_chain`` and class attributes such as
``TinyCausalLM.forward``) with wrappers that record one span per call, and
puts every original back when tracing ends.  Nothing inside the package is
edited.  Spans stay in memory as tuples and are written out once, after the
run.

A span is ``(id, parent, invocation, name, start, end, amount)``.  Ids
increase in start order, so a parent's id is always below its children's.
Every span of one CLI invocation carries the id of that invocation's root
span.  ``amount`` is the work a call did, in the unit its layer counts
(positions, examples, tokens, bytes, batch size), or None.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from quantiles import percentile

Span = tuple  # (id, parent, invocation, name, start, end, amount)


def _rows(args, kwargs, result):  # TinyCausalLM.forward(self, X)
    return len(args[1])


def _cached_rows(args, kwargs, result):  # backward_input(self, cache, ...)
    return args[1]["L"]


def _second_len(args, kwargs, result):  # f(prompt, batch, ...) / f(prompt, dataset, ...)
    return len(args[1])


def _length(args, kwargs, result):  # generator(prompt_text, *, p, length, rng)
    return kwargs["length"]


def _file_size(args, kwargs, result):  # save_record returns the written path
    return os.stat(result).st_size


# (span name, "module:qualified.attribute", amount of work per call).  The
# sum of every span's self time is the traced wall time, so each call that
# takes time between the CLI entry point and the model belongs to a span.
SPANS = (
    ("cli.main", "promptsearch.cli:main", None),
    ("cli.cmd_tune", "promptsearch.cli:cmd_tune", None),
    ("cli.cmd_eval", "promptsearch.cli:cmd_eval", None),
    ("cli.cmd_analyze", "promptsearch.cli:cmd_analyze", None),
    ("tasks.load_dataset", "promptsearch.tasks:load_dataset", None),
    ("sampler.run_chain", "promptsearch.sampler:run_chain", None),
    ("sampler.langevin_step", "promptsearch.sampler:langevin_step", None),
    ("sampler.save_record", "promptsearch.sampler:save_record", _file_size),
    ("projection.project_subset", "promptsearch.projection:project_subset", None),
    ("energies.energy_and_grad", "promptsearch.energies:energy_and_grad", _second_len),
    ("energies.task_nll", "promptsearch.energies:task_nll", None),
    ("energies.fluency_nll", "promptsearch.energies:fluency_nll", None),
    ("energies.entropy_loss", "promptsearch.energies:entropy_loss", None),
    ("energies.domain_nll", "promptsearch.energies:domain_nll", None),
    ("model.forward", "promptsearch.model:TinyCausalLM.forward", _rows),
    ("model.backward_input", "promptsearch.model:TinyCausalLM.backward_input", _cached_rows),
    ("model.label_word_distribution", "promptsearch.model:label_word_distribution", None),
    ("metrics.accuracy", "promptsearch.metrics:accuracy", _second_len),
    ("metrics.log_perplexity", "promptsearch.metrics:log_perplexity", None),
    ("analysis.diagnostics_report", "promptsearch.analysis:diagnostics_report", None),
    ("analysis.label_entropy", "promptsearch.analysis:label_entropy", None),
    ("analysis.LocalContinuationGenerator",
     "promptsearch.analysis:LocalContinuationGenerator.__call__", _length),
)

# Calls that are only counted: they are too frequent and too short for a span
# each, and their time stays in the caller's self time.  ``logsumexp`` is
# counted where the energies look it up, not where metrics does.
COUNTERS = (
    ("energies.logsumexp", "promptsearch.energies:logsumexp", "promptsearch.energies"),
    ("tasks.render", "promptsearch.tasks:render", None),
)


def _resolve(target: str):
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name, current value)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _binding_sites(target: str, only_module: str | None):
    """Every (owner, attribute) a caller can look the target up through.

    A method is looked up on its class.  A module-level function is looked
    up in each package module that defines or imports it, so each such
    global is a site; ``only_module`` narrows that to one module.
    """
    owner, attr, original = _resolve(target)
    if not isinstance(owner, type(sys)):
        return original, [(owner, attr)]
    sites = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("promptsearch.") or module is None:
            continue
        if only_module is not None and name != only_module:
            continue
        for key, value in vars(module).items():
            if value is original:
                sites.append((module, key))
    return original, sites


class Tracer:
    """Records spans and call counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []  # (span id, invocation id) of open spans

    def _span_wrapper(self, name: str, fn, amount):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent, invocation = stack[-1] if stack else (None, sid)
            spans.append(None)  # reserve the id before children claim theirs
            stack.append((sid, invocation))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, invocation, name, start, end, None)
            if amount is not None:
                spans[sid] = (sid, parent, invocation, name, start, end,
                              amount(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in SPANS and COUNTERS; restore all of them on exit."""
        replaced = []
        try:
            for name, target, amount in SPANS:
                original, sites = _binding_sites(target, None)
                wrapper = self._span_wrapper(name, original, amount)
                for owner, attr in sites:
                    replaced.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            for name, target, only_module in COUNTERS:
                original, sites = _binding_sites(target, only_module)
                wrapper = self._count_wrapper(name, original)
                for owner, attr in sites:
                    replaced.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write spans and counts as one JSON document."""
        doc = {"fields": ["id", "parent", "invocation", "name", "start", "end", "amount"],
               "spans": self.spans, "counts": dict(self.counts)}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                              encoding="utf-8")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered part is the sum of their durations.
    """
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[5] - s[4]
    return out


def _inside(spans: list[Span], name: str) -> list[bool]:
    """Whether each span is, or runs inside, a span called ``name``."""
    flags = []
    for s in spans:  # a parent's id is below its children's
        flags.append(s[3] == name or (s[1] is not None and flags[s[1]]))
    return flags


def step_durations(spans: list[Span]) -> list[float]:
    """Sampler step times: from a step's energy call to the end of its update.

    Inside each ``run_chain`` span, the i-th ``energy_and_grad`` span and the
    i-th ``langevin_step`` span belong to step i.
    """
    energy = defaultdict(list)
    update = defaultdict(list)
    for s in spans:
        if s[3] == "energies.energy_and_grad":
            energy[s[1]].append(s[4])
        elif s[3] == "sampler.langevin_step":
            update[s[1]].append(s[5])
    out = []
    for chain, starts in energy.items():
        out.extend(end - start for start, end in zip(starts, update[chain]))
    return out


# Per-layer metric names in report order, with units.
LAYER_METRICS = (
    ("model.forward.calls", "count"),
    ("model.forward.positions", "count"),
    ("model.forward.self_s", "s"),
    ("model.backward_input.calls", "count"),
    ("model.backward_input.positions", "count"),
    ("model.backward_input.self_s", "s"),
    ("model.label_word_distribution.self_s", "s"),
    ("energies.energy_and_grad.self_s", "s"),
    ("energies.task_nll.self_s", "s"),
    ("energies.fluency_nll.self_s", "s"),
    ("energies.entropy_loss.self_s", "s"),
    ("energies.domain_nll.self_s", "s"),
    ("energies.logsumexp.calls", "count"),
    ("energies.forwards_per_example", "ratio"),
    ("projection.project_subset.calls", "count"),
    ("projection.project_subset.self_s", "s"),
    ("sampler.run_chain.self_s", "s"),
    ("sampler.langevin_step.self_s", "s"),
    ("sampler.step_s.p50", "s"),
    ("sampler.step_s.p90", "s"),
    ("sampler.save_record.self_s", "s"),
    ("sampler.save_record.bytes", "count"),
    ("metrics.accuracy.calls", "count"),
    ("metrics.accuracy.examples", "count"),
    ("metrics.accuracy.self_s", "s"),
    ("metrics.log_perplexity.self_s", "s"),
    ("analysis.LocalContinuationGenerator.tokens", "count"),
    ("analysis.LocalContinuationGenerator.self_s", "s"),
    ("analysis.generate.positions_per_token", "ratio"),
    ("analysis.label_entropy.self_s", "s"),
    ("analysis.diagnostics_report.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.cmd_tune.self_s", "s"),
    ("cli.cmd_eval.self_s", "s"),
    ("cli.cmd_analyze.self_s", "s"),
    ("tasks.load_dataset.self_s", "s"),
    ("tasks.render.calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list[Span], counts: Counter, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``traced_wall`` and ``untraced_wall`` are the harness's wall times for
    the same rounds with tracing on and off.  A layer that did not run
    reports 0.
    """
    selfs = self_times(spans)
    calls, self_s, amount = Counter(), defaultdict(float), Counter()
    for s, own in zip(spans, selfs):
        calls[s[3]] += 1
        self_s[s[3]] += own
        if s[6] is not None:
            amount[s[3]] += s[6]

    in_energy = _inside(spans, "energies.energy_and_grad")
    in_generator = _inside(spans, "analysis.LocalContinuationGenerator")
    energy_forwards = sum(1 for s, flag in zip(spans, in_energy)
                          if flag and s[3] == "model.forward")
    generator_positions = sum(s[6] for s, flag in zip(spans, in_generator)
                              if flag and s[3] == "model.forward")
    examples = amount["energies.energy_and_grad"]
    tokens = amount["analysis.LocalContinuationGenerator"]
    steps = step_durations(spans)

    out = {}
    for metric, _unit in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[layer] + counts[layer]
        elif field == "self_s":
            out[metric] = self_s[layer]
        elif field in ("positions", "examples", "tokens", "bytes"):
            out[metric] = amount[layer]
    out["energies.forwards_per_example"] = energy_forwards / examples if examples else 0.0
    out["analysis.generate.positions_per_token"] = (generator_positions / tokens
                                                    if tokens else 0.0)
    out["sampler.step_s.p50"] = percentile(steps, 50) if steps else 0.0
    out["sampler.step_s.p90"] = percentile(steps, 90) if steps else 0.0
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
