"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quantiles import percentile, tail_percentile  # noqa: E402

TINY = workloads.Sizes(train=8, val=8, steps=3, batch=4, prompt_len=3,
                       score_examples=6, score_min_words=2, score_max_words=5,
                       setup_chains=2, setup_steps=2, continuations=1,
                       continuation_length=3)


@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_matches_numpy_linear_method():
    rng = random.Random(0)
    for n in (1, 2, 7, 100):
        xs = [rng.random() for _ in range(n)]
        for q in (0, 10, 50, 90, 99.9, 100):
            assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))


def _span(sid, parent, name, start, end, amount=None):
    return (sid, parent, 0, name, start, end, amount)


def test_self_times_subtract_direct_children_only():
    s = [_span(0, None, "root", 0.0, 10.0),
         _span(1, 0, "a", 1.0, 4.0),
         _span(2, 1, "a.child", 2.0, 3.0),
         _span(3, 0, "b", 5.0, 9.0)]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(spans.self_times(s)) == pytest.approx(10.0)


def test_layer_metrics_on_synthetic_spans():
    s = [_span(0, None, "cli.main", 0.0, 10.0),
         _span(1, 0, "sampler.run_chain", 0.5, 9.5),
         # step 0: energy over a batch of 2 with three forwards, then the update
         _span(2, 1, "energies.energy_and_grad", 1.0, 4.0, 2),
         _span(3, 2, "model.forward", 1.0, 2.0, 30),
         _span(4, 2, "model.forward", 2.0, 3.0, 30),
         _span(5, 2, "model.forward", 3.0, 3.5, 10),
         _span(6, 1, "sampler.langevin_step", 4.0, 5.0),
         # step 1
         _span(7, 1, "energies.energy_and_grad", 5.0, 6.0, 2),
         _span(8, 7, "model.forward", 5.0, 6.0, 30),
         _span(9, 1, "sampler.langevin_step", 6.0, 8.0),
         # a forward outside the energies
         _span(10, 0, "model.forward", 9.5, 10.0, 4)]
    out = spans.layer_metrics(s, Counter({"energies.logsumexp": 7}), 10.5, 10.0)
    assert out["model.forward.calls"] == 5
    assert out["model.forward.positions"] == 104
    assert out["model.forward.self_s"] == pytest.approx(4.0)
    assert out["energies.energy_and_grad.self_s"] == pytest.approx(0.5)
    assert out["energies.forwards_per_example"] == pytest.approx(4 / 4)
    assert out["energies.logsumexp.calls"] == 7
    assert out["sampler.step_s.p50"] == pytest.approx(3.5)  # steps of 4 s and 3 s
    assert out["sampler.run_chain.self_s"] == pytest.approx(9.0 - (3.0 + 1.0) - (1.0 + 2.0))
    assert out["trace.wall_s"] == 10.5
    assert out["trace.overhead_s"] == pytest.approx(0.5)
    assert out["analysis.generate.positions_per_token"] == 0.0
    assert set(out) == {name for name, _ in spans.LAYER_METRICS}


def _all_sites():
    sites = []
    for _, target, _ in spans.SPANS:
        sites += spans._binding_sites(target, None)[1]
    for _, target, only in spans.COUNTERS:
        sites += spans._binding_sites(target, only)[1]
    return [(owner, attr, getattr(owner, attr)) for owner, attr in sites]


def test_tracer_wraps_callers_names_and_restores_them():
    import promptsearch.analysis
    import promptsearch.cli
    import promptsearch.energies
    import promptsearch.metrics

    before = _all_sites()
    accuracy = promptsearch.metrics.accuracy
    metrics_logsumexp = promptsearch.metrics.logsumexp
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # the names callers look up are wrapped, aliases included ...
            assert promptsearch.cli.accuracy is not accuracy
            assert promptsearch.analysis._accuracy is promptsearch.cli.accuracy
            assert promptsearch.energies.logsumexp is not metrics_logsumexp
            # ... except logsumexp outside the energies
            assert promptsearch.metrics.logsumexp is metrics_logsumexp
            raise RuntimeError("a failing round")
    assert all(getattr(owner, attr) is original for owner, attr, original in before)
    assert promptsearch.cli.accuracy is accuracy


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(name, trace, tmp_path):
    result = run.measure(name, seed=3, seconds=0, trace=trace, import_s=0.0,
                         work=tmp_path / "work", sizes=TINY)
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = spans.LAYER_METRICS if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_what_runs_report():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)
