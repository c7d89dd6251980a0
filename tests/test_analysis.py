"""Diagnostics: entropy forms, rank correlation, word counts, report assembly."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stub_model_with_label_probs
from oracles import brute_spearman_rho, welch_t_pvalue
from promptsearch.analysis import (
    LocalContinuationGenerator,
    PromptDiagnostics,
    diagnostics_report,
    domain_word_frequency,
    generate_continuations,
    label_entropy,
    paired_ttest,
    pmi_dc_predict,
    spearman,
)
from promptsearch.energies import EnergyBreakdown, EnergyConfig
from promptsearch.errors import ModelFault, UsageError
from promptsearch.metrics import accuracy
from promptsearch.sampler import ChainRecord, NoiseSchedule, SamplerConfig, StepLog
from promptsearch.synthetic import synthetic_dataset, synthetic_task
from promptsearch.tasks import Example, TaskSpec


# -- label entropy ------------------------------------------------------------

def test_label_entropy_closed_forms(stub_task, stub_vocab):
    cases = [
        ((0.5, 0.5), math.log(2.0)),
        ((0.75, 0.25), 0.5623351446188083),
        ((0.9, 0.1), 0.3250829733914482),
        ((1.0, 1e-320), 0.0),
    ]
    for probs, expected in cases:
        m = stub_model_with_label_probs(stub_vocab, probs)
        assert abs(label_entropy(None, stub_task, m) - expected) < 1e-9, probs


def test_label_entropy_four_labels_uniform(stub_vocab):
    from conftest import FixedHeadModel
    t = TaskSpec(id="four", template="{x} it",
                 verbalizer={"a": "yes", "b": "no", "c": "maybe", "d": "so"},
                 domain_string="the")
    m = FixedHeadModel(stub_vocab, np.zeros(len(stub_vocab)))
    assert abs(label_entropy(None, t, m) - math.log(4.0)) < 1e-12


def test_label_entropy_reads_domain_string(model, task):
    """The probe conditions on the task's domain string, not on any input."""
    val = label_entropy(None, task, model)
    from promptsearch.model import label_word_distribution
    dist = label_word_distribution(None, task.domain_string, task, model)
    expected = -sum(p * math.log(p) for p in dist.probs if p > 0)
    assert abs(val - expected) < 1e-12


def test_label_entropy_accepts_text_prompt(model, task):
    a = label_entropy("the movie", task, model)
    b = label_entropy(None, task, model)
    assert a != b  # the prompt must actually condition the readout


# -- spearman --------------------------------------------------------------------

def test_spearman_monotone_fixtures():
    rho, p = spearman([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
    assert rho == 1.0 and p == 0.0
    rho, p = spearman([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
    assert rho == -1.0 and p == 0.0


def test_spearman_known_value():
    rho, _ = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    assert abs(rho - 0.8) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spearman_refuses_non_finite_input(bad):
    """A NaN once ranked every entry NaN, and the clamp on rho turned the NaN
    correlation into a perfect 1.0."""
    for xs, ys in [([bad, 1.0, 2.0, 3.0], [4.0, 1.0, 2.0, 3.0]),
                   ([4.0, 1.0, 2.0, 3.0], [bad, 1.0, 2.0, 3.0])]:
        with pytest.raises(UsageError, match="finite"):
            spearman(xs, ys)


def test_spearman_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(3, 30))
        xs = rng.integers(0, 8, size=n).astype(float)  # integer draws force ties
        ys = rng.normal(size=n)
        if np.all(xs == xs[0]):
            continue
        rho, _ = spearman(xs, ys)
        assert abs(rho - brute_spearman_rho(xs, ys)) < 1e-12, trial


def test_spearman_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        xs = rng.normal(size=12)
        ys = rng.normal(size=12)
        rho, p = spearman(xs, ys)
        ref = scipy.stats.spearmanr(xs, ys)
        assert abs(rho - ref.statistic) < 1e-12
        assert abs(p - ref.pvalue) < 1e-9


def test_spearman_validation():
    with pytest.raises(UsageError):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(UsageError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(UsageError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])


# -- domain word frequency ----------------------------------------------------------

def test_domain_word_frequency_hand_counts():
    words = ("movie", "film")
    assert domain_word_frequency("this movie", [], words) == 1
    assert domain_word_frequency("Movie MOVIE movie", [], words) == 3
    assert domain_word_frequency("movies are filmy", [], words) == 0  # whole words
    assert domain_word_frequency("a movie, truly (film)!", [], words) == 2
    assert domain_word_frequency("none here", [], words) == 0


def test_domain_word_frequency_additive_over_continuations():
    words = ("review",)
    base = domain_word_frequency("the review", [], words)
    both = domain_word_frequency("the review", ["a review", "no match",
                                                "review review"], words)
    assert base == 1 and both == 1 + 1 + 0 + 2


def test_domain_word_frequency_no_cross_boundary_matches():
    # newline joining must not fuse words across pieces
    assert domain_word_frequency("re", ["view"], ("review",)) == 0


def test_domain_word_frequency_needs_words():
    with pytest.raises(UsageError):
        domain_word_frequency("text", [], ())


# -- continuation generation -----------------------------------------------------------

def test_generator_is_deterministic_given_rng(model):
    gen = LocalContinuationGenerator(model)
    a = gen("the movie", p=0.9, length=12, rng=np.random.default_rng(5))
    b = gen("the movie", p=0.9, length=12, rng=np.random.default_rng(5))
    assert a == b
    assert len(a.split()) == 12


def test_generator_trace_supports_nucleus_replay(model):
    """Every chosen token must lie in the smallest prefix of the sorted
    distribution whose cumulative mass reaches p."""
    gen = LocalContinuationGenerator(model)
    p = 0.8
    gen("the movie was", p=p, length=20, rng=np.random.default_rng(9))
    trace = gen.traces[-1]
    assert len(trace) == 20
    for probs, choice in trace:
        order = np.argsort(-probs, kind="stable")
        csum = np.cumsum(probs[order])
        cutoff = min(int(np.searchsorted(csum, p)) + 1, probs.size)
        kept = set(int(i) for i in order[:cutoff])
        assert choice in kept
        # minimality: dropping the last kept token leaves mass < p
        if cutoff > 1:
            assert csum[cutoff - 2] < p


def test_generator_trace_off(model):
    gen = LocalContinuationGenerator(model, record_trace=False)
    gen("the movie", p=0.9, length=3, rng=np.random.default_rng(0))
    assert gen.traces == []


def test_generator_empty_prompt_rejected(model):
    gen = LocalContinuationGenerator(model)
    with pytest.raises(UsageError):
        gen("", p=0.9, length=3, rng=np.random.default_rng(0))


def test_generator_sliding_window_near_max_len():
    from promptsearch.model import make_reference_model
    small = make_reference_model(0, max_len=12)
    gen = LocalContinuationGenerator(small)
    out = gen("the movie was great and the plot was not", p=0.95, length=8,
              rng=np.random.default_rng(1))
    assert len(out.split()) == 8  # generation continues past the window


def test_generate_continuations_zero_k(model):
    assert generate_continuations("the", lambda *a, **k: "x", 0) == []


def test_generate_continuations_prefers_distinct():
    canned = iter(["a", "a", "b", "c"])

    def gen(prompt_text, *, p, length, rng):
        return next(canned)

    out = generate_continuations("the", gen, 3, seed=0)
    assert out == ["a", "b", "c"]


def test_generate_continuations_accepts_duplicates_after_retries(caplog):
    def gen(prompt_text, *, p, length, rng):
        return "same"

    with caplog.at_level("WARNING"):
        out = generate_continuations("the", gen, 3, seed=0, max_retries=4)
    assert out == ["same", "same", "same"]
    assert any("duplicate" in r.message for r in caplog.records)


def test_generate_continuations_wraps_generator_errors():
    def gen(prompt_text, *, p, length, rng):
        raise ValueError("boom")

    with pytest.raises(ModelFault) as err:
        generate_continuations("the", gen, 2, seed=0)
    assert "draw 1" in str(err.value)


# -- pmi baseline -----------------------------------------------------------------------

def test_pmi_dc_predict_divides_out_prior(stub_task, stub_vocab):
    """Prompted (0.6, 0.4) against prior (0.9, 0.1): ratios favor label two."""
    m = stub_model_with_label_probs(
        stub_vocab, (0.5, 0.5),
        by_body_len_probs={
            3: (0.6, 0.4),   # "so" + cue -> the input pass
            4: (0.9, 0.1),   # "the maybe" + cue -> the domain-string pass
        },
    )
    assert pmi_dc_predict("so", stub_task, m) == "neg"


def test_pmi_dc_predict_tie_goes_first(stub_task, stub_vocab):
    m = stub_model_with_label_probs(stub_vocab, (0.7, 0.3))  # same both passes
    assert pmi_dc_predict("so", stub_task, m) == "pos"


def test_pmi_dc_predict_runs_on_reference(model, task):
    pred = pmi_dc_predict("great fun bright", task, model)
    assert pred in task.labels


# -- paired t-test -----------------------------------------------------------------------

def test_paired_ttest_degenerate_rules():
    assert paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]) == 0.0


def test_paired_ttest_matches_scipy_fixture():
    a = [3.1, 4.5, 2.2, 5.0, 3.3, 4.1, 2.8, 3.9, 4.4, 3.0]
    b = [2.9, 4.0, 2.5, 4.2, 3.6, 3.8, 2.2, 4.1, 3.9, 2.7]
    ref = scipy.stats.ttest_rel(a, b).pvalue
    assert abs(paired_ttest(a, b) - ref) < 1e-12


def test_paired_ttest_validation():
    with pytest.raises(UsageError):
        paired_ttest([1.0], [2.0])
    with pytest.raises(UsageError):
        paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=12))
def test_paired_ttest_symmetry_property(xs):
    ys = [x + 0.5 for x in xs]
    assert paired_ttest(xs, ys) == pytest.approx(paired_ttest(ys, xs))


# -- diagnostics rows ---------------------------------------------------------------------

def test_prompt_diagnostics_refuses_a_negative_label_entropy():
    with pytest.raises(UsageError, match="label_entropy out of range: -0.1"):
        PromptDiagnostics(prompt_text="x", accuracy=0.5, perplexity=None,
                          label_entropy=-0.1, domain_word_count=0, source="tuned")


def test_prompt_diagnostics_source_validation():
    with pytest.raises(UsageError):
        PromptDiagnostics(prompt_text="x", accuracy=0.5, perplexity=None,
                          label_entropy=0.1, domain_word_count=0,
                          source="machine")


# -- report assembly ------------------------------------------------------------------------

def tuned_record(model, task, text, acc=None, seed=0):
    ids = tuple(model.tokenize(text))
    cfg = SamplerConfig(eta=0.5, schedule=NoiseSchedule(1.0, 1e-4, 1), steps=1,
                        batch_size=4, seed=seed,
                        energy=EnergyConfig.supervised(0.1),
                        prompt_length=len(ids))
    rec = ChainRecord(config=cfg, task_id=task.id,
                      per_step=(StepLog(0, EnergyBreakdown(1.0, {}), ids),),
                      final_prompt_text=text,
                      metrics={} if acc is None else {"accuracy": acc})
    return rec


@pytest.fixture
def report_inputs(model, task):
    chains = [tuned_record(model, task, t, seed=i) for i, t in enumerate(
        ["the movie was great", "a good story", "bad bad movie"])]
    val = synthetic_dataset(16, seed=7)
    return chains, val


def test_report_schema_and_row_counts(model, task, report_inputs):
    chains, val = report_inputs
    doc = diagnostics_report(chains, task, model, val_data=val,
                             human_prompts=["this is a review"],
                             random_prompts=["cold warm old", "dull new the"],
                             include_empty=True)
    assert set(doc) == {"prompts", "entropy_hist", "scatter", "spearman",
                        "domain_freq"}
    assert len(doc["prompts"]) == 3 + 1 + 2 + 1
    sources = [r["source"] for r in doc["prompts"]]
    assert sources.count("tuned") == 3 and sources.count("empty") == 1
    hist = doc["entropy_hist"]
    assert len(hist["bins"]) == 21 and len(hist["counts"]) == 20
    assert sum(hist["counts"]) == len(doc["prompts"])
    assert set(hist["by_source"]) == {"tuned", "human", "random", "empty"}
    assert sum(hist["by_source"]["tuned"]) == 3
    assert len(doc["scatter"]) == 3
    assert doc["spearman"] is None or set(doc["spearman"]) == {"rho", "p"}
    assert set(doc["domain_freq"]) == {"effective", "random", "t_test_p"}


def test_report_bins_span_zero_to_log_y(model, task, report_inputs):
    chains, val = report_inputs
    doc = diagnostics_report(chains, task, model, val_data=val)
    bins = doc["entropy_hist"]["bins"]
    assert bins[0] == 0.0
    assert bins[-1] == pytest.approx(math.log(len(task.labels)))


def test_report_prefers_stored_metrics(model, task):
    rec = tuned_record(model, task, "the movie was great", acc=0.77)
    doc = diagnostics_report([rec], task, model)  # no val_data needed
    assert doc["prompts"][0]["accuracy"] == 0.77


def test_report_requires_val_data_when_metrics_missing(model, task):
    rec = tuned_record(model, task, "the movie was great")
    with pytest.raises(UsageError):
        diagnostics_report([rec], task, model)


def test_report_refuses_val_data_with_a_label_outside_the_task(model, task):
    rec = tuned_record(model, task, "the movie was great")
    with pytest.raises(UsageError, match="label 'zzz' outside task labels"):
        diagnostics_report([rec], task, model, val_data=[Example("great fun", "zzz")])


def test_report_baselines_require_val_data(model, task):
    rec = tuned_record(model, task, "the movie", acc=0.5)
    with pytest.raises(UsageError):
        diagnostics_report([rec], task, model, human_prompts=["hello there"])


def test_report_deduplicates_per_source(model, task, report_inputs):
    _, val = report_inputs
    twice = [tuned_record(model, task, "the movie was great", seed=s)
             for s in (0, 1)]
    doc = diagnostics_report(twice, task, model, val_data=val,
                             random_prompts=["the movie was great"])
    # same text collapses within a source but stays distinct across sources
    assert len(doc["prompts"]) == 2
    assert {r["source"] for r in doc["prompts"]} == {"tuned", "random"}


def test_report_skips_a_repeated_tuned_row_before_scoring_it(model, task):
    """A second chain with the same final prompt adds no row, so its missing
    accuracy needs no ``val_data``: the first chain's stored one is kept."""
    first = tuned_record(model, task, "the movie was great", acc=0.75, seed=0)
    again = tuned_record(model, task, "the movie was great", seed=1)
    doc = diagnostics_report([first, again], task, model)
    assert [(r["source"], r["accuracy"]) for r in doc["prompts"]] == [("tuned", 0.75)]


def test_report_empty_row_shape(model, task, report_inputs):
    _, val = report_inputs
    rec = tuned_record(model, task, "the movie", acc=0.5)
    doc = diagnostics_report([rec], task, model, val_data=val,
                             include_empty=True)
    empty_rows = [r for r in doc["prompts"] if r["source"] == "empty"]
    assert len(empty_rows) == 1
    row = empty_rows[0]
    assert row["prompt_text"] == "" and row["perplexity"] is None
    assert row["accuracy"] == accuracy(None, val, task, model)


def test_report_spearman_needs_three_tuned(model, task, report_inputs):
    _, val = report_inputs
    two = [tuned_record(model, task, t, seed=i)
           for i, t in enumerate(["the movie", "good story"])]
    doc = diagnostics_report(two, task, model, val_data=val)
    assert doc["spearman"] is None


def test_report_spearman_consistent_with_scatter(model, task, report_inputs):
    chains, val = report_inputs
    doc = diagnostics_report(chains, task, model, val_data=val)
    if doc["spearman"] is not None:
        xs = [s[0] for s in doc["scatter"]]
        ys = [s[1] for s in doc["scatter"]]
        rho, p = spearman(xs, ys)
        assert doc["spearman"] == {"rho": rho, "p": p}


def test_report_effective_quantile_selection(model, task):
    accs = [0.2, 0.4, 0.6, 0.8]
    chains = [tuned_record(model, task, f"the movie {w}", acc=a, seed=i)
              for i, (w, a) in enumerate(zip("abcd", accs))]
    # quantile 0 keeps every tuned prompt
    doc = diagnostics_report(chains, task, model, effective_quantile=0.0)
    assert doc["domain_freq"]["effective"]["mean_acc"] == \
        pytest.approx(sum(accs) / 4)
    # quantile 1 keeps only the maximum
    doc = diagnostics_report(chains, task, model, effective_quantile=1.0)
    assert doc["domain_freq"]["effective"]["mean_acc"] == 0.8


def test_report_ttest_needs_two_pairs(model, task, report_inputs):
    _, val = report_inputs
    rec = tuned_record(model, task, "the movie", acc=0.9)
    doc = diagnostics_report([rec], task, model, val_data=val,
                             random_prompts=["old cold"])
    assert doc["domain_freq"]["t_test_p"] is None
    doc = diagnostics_report([rec, tuned_record(model, task, "good story",
                                                acc=0.8, seed=1)],
                             task, model, val_data=val, effective_quantile=0.0,
                             random_prompts=["old cold", "dull new"])
    assert doc["domain_freq"]["t_test_p"] is not None


def test_report_domain_counts_include_continuations(model, task, report_inputs):
    chains, val = report_inputs
    gen = LocalContinuationGenerator(model, record_trace=False)
    plain = diagnostics_report(chains, task, model, val_data=val)
    with_gen = diagnostics_report(chains, task, model, val_data=val,
                                  generator=gen, continuations_per_prompt=3,
                                  continuation_length=30)
    base = [r["domain_word_count"] for r in plain["prompts"]]
    rich = [r["domain_word_count"] for r in with_gen["prompts"]]
    assert all(b <= r for b, r in zip(base, rich))
    assert sum(rich) > sum(base)  # 90 sampled tokens hit a domain word somewhere


def test_report_is_json_serializable(model, task, report_inputs):
    import json
    chains, val = report_inputs
    doc = diagnostics_report(chains, task, model, val_data=val,
                             include_empty=True,
                             random_prompts=["old cold the"])
    json.dumps(doc)



# -- the domain-word test over unpaired rows ---------------------------------------------

_TUNED = [("the movie review", 0.1), ("a movie", 0.7), ("review the product movie", 0.2),
          ("good story", 0.3), ("movie movie", 0.6)]
_RANDOM = ["cold warm old", "dull movie the", "the review", "old new", "fun fresh",
           "slow dark movie"]


def _domain_doc(model, task, val, order_tuned, order_random):
    chains = [tuned_record(model, task, _TUNED[i][0], acc=_TUNED[i][1], seed=i)
              for i in order_tuned]
    return diagnostics_report(chains, task, model, val_data=val, effective_quantile=0.0,
                              random_prompts=[_RANDOM[i] for i in order_random])


def test_report_domain_freq_does_not_depend_on_row_order(model, task, report_inputs):
    """Effective and random prompts are not pairs: permuting the chains and
    the random prompts leaves every ``domain_freq`` number bitwise equal."""
    import json

    _, val = report_inputs
    base = _domain_doc(model, task, val, range(len(_TUNED)), range(len(_RANDOM)))
    assert base["domain_freq"]["t_test_p"] is not None
    rng = np.random.default_rng(3)
    for _ in range(4):
        doc = _domain_doc(model, task, val, rng.permutation(len(_TUNED)),
                          rng.permutation(len(_RANDOM)))
        assert json.dumps(doc["domain_freq"]) == json.dumps(base["domain_freq"])


def test_report_domain_p_value_is_welch_over_every_row(model, task, report_inputs):
    _, val = report_inputs
    doc = _domain_doc(model, task, val, range(len(_TUNED)), range(len(_RANDOM)))
    counts = {source: [r["domain_word_count"] for r in doc["prompts"]
                       if r["source"] == source] for source in ("tuned", "random")}
    assert len(counts["tuned"]) == 5 and len(counts["random"]) == 6
    assert abs(doc["domain_freq"]["t_test_p"]
               - welch_t_pvalue(counts["tuned"], counts["random"])) < 1e-12


def test_welch_ttest_matches_oracle_and_its_degenerate_rules():
    from promptsearch.analysis import _welch_ttest

    effective = [3, 5, 4, 6]
    for random in ([0, 0, 1, 1, 2, 3], [3, 2, 1, 1, 0, 0], [1, 3, 0, 2, 0, 1]):
        assert abs(_welch_ttest(effective, random)
                   - welch_t_pvalue(effective, random)) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.integers(0, 8, size=int(rng.integers(2, 12)))
        b = rng.normal(2.0, 1.5, size=int(rng.integers(2, 12)))
        assert abs(_welch_ttest(a, b) - welch_t_pvalue(a, b)) < 1e-12
    assert _welch_ttest([1, 2], [3]) is None and _welch_ttest([], [1, 2]) is None
    assert _welch_ttest([2, 2], [2, 2, 2]) == 1.0
    assert _welch_ttest([2, 2], [1, 1, 1]) == 0.0


# -- statistics without scipy.stats ---------------------------------------------------

def test_spearman_and_paired_ttest_bitwise_equal_scipy_stats_forms():
    """The report's numbers are unchanged: ranks and t tails computed the way
    ``scipy.stats.rankdata(method="average")`` and ``t.sf`` compute them."""
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(3, 25))
        xs = rng.integers(0, 6, size=n).astype(float)
        ys = rng.normal(size=n) if trial % 2 else rng.integers(0, 4, size=n).astype(float)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        rx = scipy.stats.rankdata(xs, method="average")
        ry = scipy.stats.rankdata(ys, method="average")
        rho = max(-1.0, min(1.0, float(np.corrcoef(rx, ry)[0, 1])))
        p = 0.0 if abs(rho) == 1.0 else 2.0 * float(scipy.stats.t.sf(
            abs(rho * math.sqrt((n - 2) / (1.0 - rho * rho))), n - 2))
        assert spearman(xs, ys) == (rho, p), trial
        d = xs - ys
        t_stat = float(d.mean()) / (float(d.std(ddof=1)) / math.sqrt(n))
        assert paired_ttest(xs, ys) == 2.0 * float(scipy.stats.t.sf(abs(t_stat), n - 1))


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    import subprocess
    import sys

    code = "import sys, promptsearch.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
