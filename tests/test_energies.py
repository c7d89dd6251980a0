"""Energy terms: closed forms, finite-difference gradients, combination rules."""

import math

import numpy as np
import pytest

from conftest import CountingModel, stub_model_with_label_probs
from oracles import fd_grad, max_rel_err
from promptsearch.energies import (
    EnergyConfig,
    domain_nll,
    energy_and_grad,
    entropy_loss,
    fluency_nll,
    supervised_energy,
    task_nll,
    term_weights,
    unsupervised_energy,
)
from promptsearch.errors import ConfigurationError, DataError, UsageError
from promptsearch.metrics import log_perplexity
from promptsearch.model import (
    SoftPrompt,
    label_word_distribution,
    prompt_from_ids,
)
from promptsearch.tasks import Example, TaskSpec


def soft(model, seed, m=3, scale=0.5):
    rng = np.random.default_rng(seed)
    return SoftPrompt(entries=rng.normal(size=(m, model.dim)) * scale)


# -- EnergyConfig ------------------------------------------------------------

def test_config_weight_sum_enforced():
    with pytest.raises(ConfigurationError):
        EnergyConfig(mode="supervised", lambda_task=0.5, lambda_fluency=0.4)
    with pytest.raises(ConfigurationError):
        EnergyConfig(mode="unsupervised", lambda_calibration=1.0,
                     lambda_domain=0.1)
    with pytest.raises(ConfigurationError):
        EnergyConfig(mode="supervised", lambda_task=1.5, lambda_fluency=-0.5)
    with pytest.raises(ConfigurationError):
        EnergyConfig(mode="energy")
    with pytest.raises(ConfigurationError):
        EnergyConfig(mode="unsupervised", lambda_calibration=1.0,
                     lambda_domain=0.0, sign="reversed")


def test_config_classmethods():
    sup = EnergyConfig.supervised(0.1)
    assert (sup.lambda_task, sup.lambda_fluency) == (0.9, 0.1)
    uns = EnergyConfig.unsupervised(0.25, sign="literal")
    assert (uns.lambda_calibration, uns.lambda_domain) == (0.75, 0.25)
    assert uns.sign == "literal"


def test_term_weights_signs():
    sup = EnergyConfig.supervised(0.2)
    assert term_weights(sup) == {"task": 0.8, "fluency": 0.2}
    intent = EnergyConfig.unsupervised(0.3)
    assert term_weights(intent) == {"entropy": 0.7, "domain": 0.3}
    literal = EnergyConfig.unsupervised(0.3, sign="literal")
    assert term_weights(literal) == {"entropy": -0.7, "domain": -0.3}


# -- closed forms on the stub head ---------------------------------------------

def test_task_nll_closed_form(stub_task, stub_vocab):
    m = stub_model_with_label_probs(stub_vocab, (0.75, 0.25))
    prompt = SoftPrompt(entries=np.zeros((2, m.dim)))
    m.prompt_rows = 2
    batch = [Example("so", "pos"), Example("so", "neg")]
    got = task_nll(prompt, batch, stub_task, m)
    expected = (-math.log(0.75) - math.log(0.25)) / 2.0
    assert abs(got - expected) < 1e-12


def test_entropy_loss_uses_mean_then_entropy(stub_task, stub_vocab):
    # one example peaks on "yes", the other on "no"; the batch mean is
    # uniform, so the value must sit at -ln 2, not near 0
    m = stub_model_with_label_probs(
        stub_vocab, (0.5, 0.5),
        by_body_len_probs={3: (0.999, 0.001), 4: (0.001, 0.999)},
    )
    prompt = SoftPrompt(entries=np.zeros((1, m.dim)))
    m.prompt_rows = 1
    batch = [Example("so"), Example("so the")]  # body lengths 3 and 4 with cue
    got = entropy_loss(prompt, batch, stub_task, m)
    assert abs(got - (-math.log(2.0))) < 1e-12


def test_entropy_loss_closed_form_values(stub_task, stub_vocab):
    cases = [
        ((0.5, 0.5), -math.log(2.0)),
        ((0.75, 0.25), -0.5623351446188083),
        ((0.9, 0.1), -0.3250829733914482),
        ((1.0, 1e-320), 0.0),
    ]
    for probs, expected in cases:
        m = stub_model_with_label_probs(stub_vocab, probs)
        prompt = SoftPrompt(entries=np.zeros((1, m.dim)))
        m.prompt_rows = 1
        got = entropy_loss(prompt, [Example("so")], stub_task, m)
        assert abs(got - expected) < 1e-9, probs


def test_entropy_loss_bounds(model, task, small_data):
    prompt = soft(model, 0)
    val = entropy_loss(prompt, small_data[:6], task, model)
    assert -math.log(len(task.labels)) - 1e-12 <= val <= 1e-12


def test_entropy_loss_ignores_labels(model, task, small_data):
    prompt = soft(model, 1)
    labeled = small_data[:4]
    stripped = [Example(ex.text) for ex in labeled]
    assert entropy_loss(prompt, labeled, task, model) == \
        entropy_loss(prompt, stripped, task, model)


# -- fluency ---------------------------------------------------------------------

def test_fluency_length_one_is_zero(model):
    prompt = soft(model, 2, m=1)
    assert fluency_nll(prompt, model) == 0.0
    val, g = fluency_nll(prompt, model, grad=True)
    assert val == 0.0 and np.array_equal(g, np.zeros_like(prompt.entries))


def test_fluency_on_projected_prompt_matches_token_nll(model):
    """With rows tied to the table, the energy equals the token-level NLL."""
    ids = model.tokenize("the movie was great")
    prompt = prompt_from_ids(ids, model)
    per_token = log_perplexity("the movie was great", model)
    total = fluency_nll(prompt, model)
    assert abs(total - per_token * (len(ids) - 1)) < 1e-9


def test_fluency_nonnegative_on_projected_rows(model):
    for seed in range(5):
        ids = list(np.random.default_rng(seed).integers(2, model.vocab_size,
                                                        size=6))
        prompt = prompt_from_ids(ids, model)
        assert fluency_nll(prompt, model) >= 0.0


# -- domain ------------------------------------------------------------------------

def test_domain_nll_degenerates_to_fluency(model):
    bare = TaskSpec(id="bare", template="{x}",
                    verbalizer={"a": "good", "b": "bad"},
                    domain_string="review")
    prompt = soft(model, 3, m=4)
    got = domain_nll(prompt, [Example("")], bare, model)
    assert abs(got - fluency_nll(prompt, model)) < 1e-12


def test_domain_nll_counts_input_and_cue_tokens(model, task):
    """Hand-assembled recount: prompt fluency + NLL of every body token."""
    from scipy.special import logsumexp

    prompt = prompt_from_ids(model.tokenize("the movie"), model)
    ex = Example("great fun")
    got = domain_nll(prompt, [ex], task, model)

    body = model.tokenize("great fun it was")
    X = np.concatenate([prompt.entries,
                        model.embedding_table().entries[body]])
    fw = model.forward(X)
    m = prompt.length
    expected = fluency_nll(prompt, model)
    for j, tok in enumerate(body):
        pos = m + j
        expected += float(logsumexp(fw.logits[pos - 1])) - \
            float(fw.logits[pos - 1, tok])
    assert abs(got - expected) < 1e-9


# -- finite-difference gradient fidelity ----------------------------------------------

def test_task_nll_gradient_matches_fd(model, task, small_data):
    prompt = soft(model, 4)
    batch = small_data[:3]
    _, g = task_nll(prompt, batch, task, model, grad=True)
    fd = fd_grad(lambda x: task_nll(SoftPrompt(entries=x), batch, task, model),
                 prompt.entries)
    assert max_rel_err(g, fd) < 1e-5


def test_fluency_gradient_matches_fd(model):
    prompt = soft(model, 5, m=4)
    _, g = fluency_nll(prompt, model, grad=True)
    fd = fd_grad(lambda x: fluency_nll(SoftPrompt(entries=x), model),
                 prompt.entries)
    assert max_rel_err(g, fd) < 1e-5


def test_entropy_gradient_matches_fd(model, task, small_data):
    prompt = soft(model, 6)
    batch = small_data[:3]
    _, g = entropy_loss(prompt, batch, task, model, grad=True)
    fd = fd_grad(lambda x: entropy_loss(SoftPrompt(entries=x), batch, task,
                                        model), prompt.entries)
    assert max_rel_err(g, fd) < 1e-4


def test_domain_gradient_matches_fd(model, task, small_data):
    prompt = soft(model, 7)
    batch = small_data[:2]
    _, g = domain_nll(prompt, batch, task, model, grad=True)
    fd = fd_grad(lambda x: domain_nll(SoftPrompt(entries=x), batch, task,
                                      model), prompt.entries)
    assert max_rel_err(g, fd) < 1e-5


def test_combined_gradients_match_fd(model, task, small_data):
    prompt = soft(model, 8)
    batch = small_data[:2]
    sup = EnergyConfig.supervised(0.25)
    _, g = supervised_energy(prompt, batch, task, model, sup, grad=True)
    fd = fd_grad(lambda x: supervised_energy(SoftPrompt(entries=x), batch,
                                             task, model, sup).total,
                 prompt.entries)
    assert max_rel_err(g, fd) < 1e-5

    for sign in ("intent", "literal"):
        uns = EnergyConfig.unsupervised(0.25, sign=sign)
        _, g = unsupervised_energy(prompt, batch, task, model, uns, grad=True)
        fd = fd_grad(lambda x: unsupervised_energy(SoftPrompt(entries=x),
                                                   batch, task, model,
                                                   uns).total, prompt.entries)
        assert max_rel_err(g, fd) < 1e-4, sign


# -- combination rules ----------------------------------------------------------------

def test_supervised_total_is_weighted_sum(model, task, small_data):
    prompt = soft(model, 9)
    batch = small_data[:3]
    cfg = EnergyConfig.supervised(0.2)
    bd = supervised_energy(prompt, batch, task, model, cfg)
    t = task_nll(prompt, batch, task, model)
    f = fluency_nll(prompt, model)
    assert bd.per_term == {"task": t, "fluency": f}
    assert abs(bd.total - (0.8 * t + 0.2 * f)) < 1e-12
    weights = term_weights(cfg)
    recombined = sum(weights[k] * bd.per_term[k] for k in weights)
    assert abs(bd.total - recombined) < 1e-12


def test_literal_sign_negates_total_and_gradient(model, task, small_data):
    prompt = soft(model, 10)
    batch = small_data[:3]
    intent = EnergyConfig.unsupervised(0.3, sign="intent")
    literal = EnergyConfig.unsupervised(0.3, sign="literal")
    bi, gi = unsupervised_energy(prompt, batch, task, model, intent, grad=True)
    bl, gl = unsupervised_energy(prompt, batch, task, model, literal, grad=True)
    assert bi.total == -bl.total
    assert bi.per_term == bl.per_term  # raw terms stay unsigned
    np.testing.assert_array_equal(gi, -gl)


def test_batch_order_invariance(model, task, small_data):
    prompt = soft(model, 11)
    batch = small_data[:5]
    shuffled = list(reversed(batch))
    assert task_nll(prompt, batch, task, model) == \
        task_nll(prompt, shuffled, task, model)
    assert entropy_loss(prompt, batch, task, model) == \
        entropy_loss(prompt, shuffled, task, model)
    assert domain_nll(prompt, batch, task, model) == \
        domain_nll(prompt, shuffled, task, model)


def test_batch_duplication_invariance(model, task, small_data):
    prompt = soft(model, 12)
    batch = small_data[:3]
    doubled = batch + batch
    assert math.isclose(task_nll(prompt, batch, task, model),
                        task_nll(prompt, doubled, task, model),
                        rel_tol=1e-14)
    assert math.isclose(domain_nll(prompt, batch, task, model),
                        domain_nll(prompt, doubled, task, model),
                        rel_tol=1e-14)


def test_energy_and_grad_dispatch(model, task, small_data):
    prompt = soft(model, 13)
    batch = small_data[:2]
    sup = EnergyConfig.supervised(0.1)
    bd, g = energy_and_grad(prompt, batch, task, model, sup)
    bd2, g2 = supervised_energy(prompt, batch, task, model, sup, grad=True)
    assert bd.total == bd2.total and np.array_equal(g, g2)
    uns = EnergyConfig.unsupervised(0.1)
    bd, g = energy_and_grad(prompt, batch, task, model, uns)
    bd2, g2 = unsupervised_energy(prompt, batch, task, model, uns, grad=True)
    assert bd.total == bd2.total and np.array_equal(g, g2)


def test_mode_mismatch_rejected(model, task, small_data):
    prompt = soft(model, 14)
    with pytest.raises(ConfigurationError):
        supervised_energy(prompt, small_data[:2], task, model,
                          EnergyConfig.unsupervised(0.1))
    with pytest.raises(ConfigurationError):
        unsupervised_energy(prompt, small_data[:2], task, model,
                            EnergyConfig.supervised(0.1))


# -- batch validation -------------------------------------------------------------------

def test_empty_batch_rejected(model, task):
    prompt = soft(model, 15)
    with pytest.raises(UsageError):
        task_nll(prompt, [], task, model)
    with pytest.raises(UsageError):
        entropy_loss(prompt, [], task, model)


def test_task_nll_requires_labels(model, task):
    prompt = soft(model, 16)
    with pytest.raises(DataError):
        task_nll(prompt, [Example("great fun")], task, model)
    with pytest.raises(DataError):
        task_nll(prompt, [Example("great fun", "neutral")], task, model)


def test_task_nll_rejects_prompt_of_wrong_dim(model, task, small_data):
    with pytest.raises(ConfigurationError):
        task_nll(SoftPrompt(entries=np.ones((3, model.dim + 1))), small_data[:2],
                 task, model)


def test_task_nll_agrees_with_distribution_recount(model, task, small_data):
    """Independent recount through the public label-distribution reader."""
    prompt = soft(model, 17)
    batch = small_data[:4]
    expected = math.fsum(
        -math.log(label_word_distribution(prompt, ex.text, task, model)[ex.label])
        for ex in batch
    ) / len(batch)
    assert abs(task_nll(prompt, batch, task, model) - expected) < 1e-12


# -- one shared pass per example ------------------------------------------------------

COMBINED_CONFIGS = [EnergyConfig.supervised(0.25),
                    EnergyConfig.unsupervised(0.25),
                    EnergyConfig.unsupervised(0.25, sign="literal")]


@pytest.mark.parametrize("cfg", COMBINED_CONFIGS, ids=lambda c: f"{c.mode}-{c.sign}")
def test_energy_and_grad_equals_weighted_standalone_terms(model, task, small_data,
                                                          cfg):
    prompt = soft(model, 18, m=4)
    batch = small_data[:5]
    standalone = {
        "task": lambda: task_nll(prompt, batch, task, model, grad=True),
        "fluency": lambda: fluency_nll(prompt, model, grad=True),
        "entropy": lambda: entropy_loss(prompt, batch, task, model, grad=True),
        "domain": lambda: domain_nll(prompt, batch, task, model, grad=True),
    }
    bd, g = energy_and_grad(prompt, batch, task, model, cfg)
    weights = term_weights(cfg)
    assert set(bd.per_term) == set(weights)
    expected_total, expected_grad = 0.0, np.zeros_like(prompt.entries)
    for name, w in weights.items():
        value, grad = standalone[name]()
        assert math.isclose(bd.per_term[name], value, rel_tol=1e-12), name
        expected_total += w * value
        expected_grad += w * grad
    assert math.isclose(bd.total, expected_total, rel_tol=1e-12)
    np.testing.assert_allclose(g, expected_grad, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("cfg", COMBINED_CONFIGS, ids=lambda c: f"{c.mode}-{c.sign}")
def test_energy_and_grad_runs_one_pass_per_example(model, task, small_data, cfg):
    counting = CountingModel(model)
    batch = small_data[:6]
    energy_and_grad(soft(model, 19, m=5), batch, task, counting, cfg)
    assert counting.forwards == len(batch)
    assert counting.backwards == len(batch)


# -- prompt once, bodies stacked ---------------------------------------------------------

class _FullPasses:
    """Overrides ``forward(self, X)``, so energies run one full pass per example."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def forward(self, X):
        return self._inner.forward(X)


MIXED_TASK = TaskSpec(id="mixed", template="{x}",
                      verbalizer={"good": "good", "bad": "bad"},
                      domain_string="review")
# rendered body lengths 0, 1, 1, 2, 3, 3: four distinct, one of them empty
MIXED_BATCH = [Example("great fun", "good"), Example("", "bad"), Example("dull", "good"),
               Example("the plot was", "bad"), Example("fun", "bad"),
               Example("a slow story", "good")]


def _grad_close(a, b):
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("cfg", COMBINED_CONFIGS, ids=lambda c: f"{c.mode}-{c.sign}")
def test_stacked_energy_equals_full_passes(model, m, cfg):
    prompt = soft(model, 20 + m, m=m)
    full = _FullPasses(model)
    assert len({len(model.tokenize(ex.text)) for ex in MIXED_BATCH}) == 4
    bd, g = energy_and_grad(prompt, MIXED_BATCH, MIXED_TASK, model, cfg)
    bd_full, g_full = energy_and_grad(prompt, MIXED_BATCH, MIXED_TASK, full, cfg)
    assert bd.total == bd_full.total and bd.per_term == bd_full.per_term
    _grad_close(g, g_full)
    combined = supervised_energy if cfg.mode == "supervised" else unsupervised_energy
    assert combined(prompt, MIXED_BATCH, MIXED_TASK, model, cfg) == \
        combined(prompt, MIXED_BATCH, MIXED_TASK, full, cfg)


@pytest.mark.parametrize("m", [1, 3])
def test_passes_return_each_examples_readouts_in_batch_order(model, m):
    """Stacked and full passes both return each example's label logits at
    the verbalizer ids and its token terms in batch order, bitwise those of
    the example's own pass, though the stacks run by body length."""
    from promptsearch.energies import _full_passes, _stacked_passes
    from promptsearch.model import _input_matrix, _logsumexp
    from promptsearch.tasks import render, verbalizer_token_ids

    prompt = soft(model, 70 + m, m=m)
    seqs = [render(MIXED_TASK, ex.text, model) for ex in MIXED_BATCH]
    assert [len(seq) for seq in seqs] == [2, 0, 1, 3, 1, 3]
    vids = verbalizer_token_ids(MIXED_TASK, model)
    _, labels, terms, _ = _stacked_passes(prompt, seqs, model, vids, True)
    _, labels_full, terms_full, _ = _full_passes(prompt, seqs, model, vids, True)
    assert labels.shape == (len(seqs), 2) and len(terms) == len(seqs)
    assert labels.tobytes() == labels_full.tobytes()
    for i, seq in enumerate(seqs):
        own = model.forward(_input_matrix(prompt, seq, model)).logits[m - 1:]
        assert labels[i].tobytes() == own[-1, vids].tobytes()
        want = _logsumexp(own[:-1]) - own[np.arange(len(seq)), seq]
        assert terms[i].tobytes() == terms_full[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("term", [task_nll, entropy_loss, domain_nll],
                         ids=lambda f: f.__name__)
def test_stacked_single_terms_equal_full_passes(model, m, term):
    prompt = soft(model, 30 + m, m=m)
    full = _FullPasses(model)
    value, g = term(prompt, MIXED_BATCH, MIXED_TASK, model, grad=True)
    value_full, g_full = term(prompt, MIXED_BATCH, MIXED_TASK, full, grad=True)
    assert value == value_full
    _grad_close(g, g_full)
    assert term(prompt, MIXED_BATCH, MIXED_TASK, model) == value
    assert term(prompt, MIXED_BATCH, MIXED_TASK, full) == value


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_fluency_on_adapter_without_extension_equals_reference_bitwise(model, m):
    """On an adapter that does not extend passes, ``fluency_nll`` runs the
    prompt's own full pass: one forward, and one backward per gradient call."""
    prompt = soft(model, 60 + m, m=m)
    counting = CountingModel(model)
    value, g = fluency_nll(prompt, model, grad=True)
    assert fluency_nll(prompt, counting) == value
    assert (counting.forwards, counting.backwards) == (1, 0)
    value_counted, g_counted = fluency_nll(prompt, counting, grad=True)
    assert (counting.forwards, counting.backwards) == (2, 1)
    assert value_counted == value and g_counted.tobytes() == g.tobytes()
    assert fluency_nll(prompt, model) == value


@pytest.mark.parametrize("batch", [MIXED_BATCH[:1], MIXED_BATCH[1:2], MIXED_BATCH[2:3]],
                         ids=["two-tokens", "empty", "one-token"])
@pytest.mark.parametrize("m", [1, 3])
def test_stacked_single_example_batch_equals_full_pass(model, batch, m):
    prompt = soft(model, 40 + m, m=m)
    for cfg in COMBINED_CONFIGS[:2]:
        bd, g = energy_and_grad(prompt, batch, MIXED_TASK, model, cfg)
        bd_full, g_full = energy_and_grad(prompt, batch, MIXED_TASK,
                                          _FullPasses(model), cfg)
        assert bd == bd_full
        _grad_close(g, g_full)


def test_stacked_domain_gradient_matches_fd(model):
    prompt = soft(model, 50, m=3)
    batch = MIXED_BATCH[:4]
    _, g = domain_nll(prompt, batch, MIXED_TASK, model, grad=True)
    fd = fd_grad(lambda x: domain_nll(SoftPrompt(entries=x), batch, MIXED_TASK, model),
                 prompt.entries)
    assert max_rel_err(g, fd) < 1e-5


@pytest.mark.parametrize("cfg", COMBINED_CONFIGS[:2], ids=lambda c: c.mode)
def test_energy_and_grad_runs_prompt_once_and_one_stack_per_length(monkeypatch, model,
                                                                   cfg):
    import functools

    from promptsearch.model import TinyCausalLM

    calls = {"forward": 0, "backward_input": 0}
    for name in calls:
        original = getattr(TinyCausalLM, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(TinyCausalLM, name, functools.wraps(original)(counted))
    energy_and_grad(soft(model, 51, m=4), MIXED_BATCH, MIXED_TASK, model, cfg)
    k = len({len(model.tokenize(ex.text)) for ex in MIXED_BATCH} - {0})
    # each stack takes one backward, over all its right-hand sides
    assert calls == {"forward": 1 + k, "backward_input": 1 + k}
