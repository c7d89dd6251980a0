"""Sampler: schedule, step semantics, chain reproducibility, records, selection."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingModel
from promptsearch.energies import EnergyBreakdown, EnergyConfig, energy_and_grad
from promptsearch.errors import ConfigurationError, DataError, NumericalFault, UsageError
from promptsearch.model import SoftPrompt, prompt_from_ids
from promptsearch.projection import allowed_token_ids, project_subset
from promptsearch.sampler import (
    ChainRecord,
    NoiseSchedule,
    SamplerConfig,
    StepLog,
    beta_at,
    langevin_step,
    load_record,
    run_chain,
    save_record,
    select_best,
)
from promptsearch.synthetic import synthetic_dataset, synthetic_task
from promptsearch.tasks import Example


def small_cfg(**overrides):
    base = dict(
        eta=0.5,
        schedule=NoiseSchedule(1.0, 1e-4, 12),
        steps=12,
        batch_size=5,
        seed=0,
        energy=EnergyConfig.supervised(0.1),
        optimizer="plain",
        prompt_length=3,
    )
    base.update(overrides)
    return SamplerConfig(**base)


# -- schedule -----------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        NoiseSchedule(0.5, 1.0, 10)  # increasing
    with pytest.raises(ConfigurationError):
        NoiseSchedule(1.0, 0.0, 10)  # zero end with nonzero start
    with pytest.raises(ConfigurationError):
        NoiseSchedule(-1.0, -2.0, 10)
    with pytest.raises(ConfigurationError):
        NoiseSchedule(1.0, 1e-4, 0)
    NoiseSchedule(0.0, 0.0, 10)  # noise-free baseline allowed


def test_beta_endpoints_exact():
    s = NoiseSchedule(1.0, 1e-4, 5000)
    assert beta_at(s, 0) == 1.0
    assert beta_at(s, 4999) == 1e-4


def test_beta_interior_geometric():
    s = NoiseSchedule(2.0, 0.125, 5)
    for i in range(5):
        expected = 2.0 * (0.125 / 2.0) ** (i / 4)
        assert math.isclose(beta_at(s, i), expected, rel_tol=1e-15)


def test_beta_monotone_decreasing():
    s = NoiseSchedule(1.0, 1e-4, 100)
    vals = [beta_at(s, i) for i in range(100)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_beta_geometric_symmetry():
    s = NoiseSchedule(1.0, 1e-4, 101)
    for i in range(101):
        prod = beta_at(s, i) * beta_at(s, 100 - i)
        assert math.isclose(prod, 1e-4, rel_tol=1e-12)


def test_beta_zero_schedule_is_flat():
    s = NoiseSchedule(0.0, 0.0, 7)
    assert all(beta_at(s, i) == 0.0 for i in range(7))


def test_beta_index_bounds():
    s = NoiseSchedule(1.0, 1e-4, 10)
    with pytest.raises(IndexError):
        beta_at(s, -1)
    with pytest.raises(IndexError):
        beta_at(s, 10)


def test_single_step_schedule():
    s = NoiseSchedule(1.0, 1e-4, 1)
    assert beta_at(s, 0) == 1.0


# -- config --------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        small_cfg(eta=0.0)
    with pytest.raises(ConfigurationError, match="finite"):
        small_cfg(eta=math.inf)
    for betas in [(math.inf, 1e-4), (math.inf, math.inf)]:
        with pytest.raises(ConfigurationError, match="finite"):
            NoiseSchedule(*betas, 10)
    with pytest.raises(ConfigurationError):
        small_cfg(steps=10)  # disagrees with schedule.steps
    with pytest.raises(ConfigurationError):
        small_cfg(optimizer="sgd")
    with pytest.raises(ConfigurationError):
        small_cfg(allowed_vocab="none")
    with pytest.raises(ConfigurationError):
        small_cfg(prompt_length=0)


def test_negative_seed_is_a_configuration_error_before_any_chain_runs(tmp_path):
    """numpy's seed sequence would refuse it mid-run with a bare ValueError;
    a record holding one is malformed."""
    with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
        small_cfg(seed=-1)
    path = save_record(make_record(0, 0.5), tmp_path / "chain.json")
    doc = json.loads(path.read_text())
    doc["config"]["seed"] = -1
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="malformed chain record"):
        load_record(path)


def test_config_dict_round_trip():
    cfg = small_cfg(init_text="the movie", model_spec="reference:3")
    assert SamplerConfig.from_dict(cfg.to_dict()) == cfg
    assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


def test_config_from_dict_fills_fields_old_records_lack():
    d = small_cfg(init_text="the movie", allowed_vocab="all",
                  model_spec="reference:3").to_dict()
    for key in ("init_text", "allowed_vocab", "model_spec"):
        del d[key]
    assert SamplerConfig.from_dict(d) == small_cfg()


# -- langevin_step ---------------------------------------------------------------

def test_step_beta_zero_equals_projected_descent(model):
    table = model.embedding_table()
    rng = np.random.default_rng(0)
    prompt = SoftPrompt(entries=rng.normal(size=(4, table.dim)))
    grad = rng.normal(size=(4, table.dim))
    got = langevin_step(prompt, grad, 0.7, 0.0, np.random.default_rng(1), table)
    want = project_subset(SoftPrompt(entries=prompt.entries - 0.7 * grad),
                          table, np.arange(table.rows))
    assert got.token_ids == want.token_ids
    assert np.array_equal(got.entries, want.entries)


def test_step_noise_reconstruction(model):
    """The update must equal x - eta*g + sqrt(2*eta*beta)*z with z replayed."""
    table = model.embedding_table()
    rng = np.random.default_rng(2)
    prompt = SoftPrompt(entries=rng.normal(size=(3, table.dim)))
    grad = rng.normal(size=(3, table.dim))
    eta, beta = 0.3, 0.05
    got = langevin_step(prompt, grad, eta, beta, np.random.default_rng(42), table)
    z = np.random.default_rng(42).standard_normal(size=(3, table.dim))
    moved = prompt.entries - eta * grad + math.sqrt(2 * eta * beta) * z
    want = project_subset(SoftPrompt(entries=moved), table, np.arange(table.rows))
    assert got.token_ids == want.token_ids


def test_step_consumes_noise_even_at_beta_zero(model):
    table = model.embedding_table()
    prompt = SoftPrompt(entries=np.zeros((2, table.dim)))
    grad = np.zeros((2, table.dim))
    used = np.random.default_rng(7)
    langevin_step(prompt, grad, 0.1, 0.0, used, table)
    fresh = np.random.default_rng(7)
    fresh.standard_normal(size=(2, table.dim))  # one draw of the same shape
    assert np.array_equal(used.standard_normal(5), fresh.standard_normal(5))


def test_step_respects_allowed_ids(model):
    table = model.embedding_table()
    prompt = SoftPrompt(entries=table.entries[[model.pad_id, model.unk_id]].copy())
    allowed = allowed_token_ids(model, "no-special")
    got = langevin_step(prompt, np.zeros_like(prompt.entries), 0.1, 0.0,
                        np.random.default_rng(0), table, allowed_ids=allowed)
    assert not set(got.token_ids) & set(model.special_token_ids)


def test_step_faults_on_nonfinite_gradient(model):
    table = model.embedding_table()
    prompt = SoftPrompt(entries=np.zeros((2, table.dim)))
    grad = np.zeros((2, table.dim))
    grad[1, 0] = np.nan
    with pytest.raises(NumericalFault) as err:
        langevin_step(prompt, grad, 0.1, 0.0, np.random.default_rng(0), table,
                      step_index=17)
    assert "17" in str(err.value)


@pytest.mark.parametrize("eta, beta", [(1e308, 1.0), (1e200, 1e200)])
def test_step_faults_on_a_proposal_a_huge_step_size_overflows(model, eta, beta):
    """A finite ``eta`` or ``beta`` whose noise scale ``sqrt(2 eta beta)``
    overflows is a numerical fault, not a configuration error."""
    table = model.embedding_table()
    prompt = SoftPrompt(entries=np.zeros((2, table.dim)))
    with pytest.raises(NumericalFault, match="non-finite proposal at step 4"):
        langevin_step(prompt, np.zeros((2, table.dim)), eta, beta,
                      np.random.default_rng(0), table, step_index=4)


def test_step_shape_and_beta_guards(model):
    table = model.embedding_table()
    prompt = SoftPrompt(entries=np.zeros((2, table.dim)))
    with pytest.raises(ConfigurationError):
        langevin_step(prompt, np.zeros((3, table.dim)), 0.1, 0.0,
                      np.random.default_rng(0), table)
    with pytest.raises(ConfigurationError):
        langevin_step(prompt, np.zeros((2, table.dim)), 0.1, -0.1,
                      np.random.default_rng(0), table)
    # a step size outside (0, inf) or a noise variance outside [0, inf) is a
    # configuration error, refused before the noise draw (and before any
    # warning, which the suite's settings would turn into a failure)
    for eta, beta in [(-1.0, 0.0), (0.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                      (0.1, math.nan), (0.1, math.inf)]:
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="eta|beta"):
            langevin_step(prompt, np.zeros((2, table.dim)), eta, beta, rng, table)
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


# -- run_chain -----------------------------------------------------------------------

def test_chain_bitwise_deterministic(model, task, small_data, tmp_path):
    cfg = small_cfg(seed=3)
    a = save_record(run_chain(task, model, cfg, small_data), tmp_path / "a.json")
    b = save_record(run_chain(task, model, cfg, small_data), tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_chain_records_every_step(model, task, small_data):
    cfg = small_cfg()
    rec = run_chain(task, model, cfg, small_data)
    assert rec.fault is None
    assert len(rec.per_step) == cfg.steps
    assert [s.index for s in rec.per_step] == list(range(cfg.steps))
    assert all(len(s.token_ids) == cfg.prompt_length for s in rec.per_step)
    assert rec.final_prompt_text == model.decode(list(rec.final_token_ids))


def test_chain_seeds_differ(model, task, small_data):
    a = run_chain(task, model, small_cfg(seed=0), small_data)
    b = run_chain(task, model, small_cfg(seed=1), small_data)
    assert [s.token_ids for s in a.per_step] != [s.token_ids for s in b.per_step]


def test_chain_logs_pre_update_energy(model, task, small_data):
    """Step 0 energy equals the energy of the *initial* prompt on batch 0."""
    cfg = small_cfg(seed=5)
    rec = run_chain(task, model, cfg, small_data)

    # replay the documented contract: seed -> (noise, shuffle); first batch
    noise_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    order = shuffle_rng.permutation(len(small_data))
    batch0 = [small_data[i] for i in order[: cfg.batch_size]]

    init = prompt_from_ids([model.neutral_token_id] * cfg.prompt_length, model)
    bd, _ = energy_and_grad(init, batch0, task, model, cfg.energy)
    assert rec.per_step[0].energy.total == bd.total
    assert rec.per_step[0].energy.per_term == bd.per_term


def test_chain_first_step_tokens_replayed(model, task, small_data):
    """Step 0 token ids equal one hand-applied update from the initial prompt."""
    cfg = small_cfg(seed=6)
    rec = run_chain(task, model, cfg, small_data)

    noise_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    noise_rng = np.random.default_rng(noise_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    order = shuffle_rng.permutation(len(small_data))
    batch0 = [small_data[i] for i in order[: cfg.batch_size]]

    init = prompt_from_ids([model.neutral_token_id] * cfg.prompt_length, model)
    _, grad = energy_and_grad(init, batch0, task, model, cfg.energy)
    stepped = langevin_step(init, grad, cfg.eta, beta_at(cfg.schedule, 0),
                            noise_rng, model.embedding_table(),
                            allowed_ids=allowed_token_ids(model, "no-special"))
    assert rec.per_step[0].token_ids == stepped.token_ids


@pytest.mark.parametrize("n, size", [(7, 5), (3, 8)])
def test_chain_batches_carry_across_epochs(model, task, n, size):
    """Batch boundaries follow the documented permutation-with-carry rule.

    With 7 examples and batch size 5, batch 1 must straddle the epoch
    boundary (2 leftovers + 3 from a fresh permutation); with 3 examples and
    batch size 8, every batch spans three epochs.  Matching per-step
    energies against re-derived batches pins the exact consumption order.
    """
    data = synthetic_dataset(n, seed=9)
    cfg = small_cfg(seed=11, batch_size=size,
                    schedule=NoiseSchedule(0.0, 0.0, 6), steps=6, eta=5.0)
    rec = run_chain(task, model, cfg, data)

    noise_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    order = list(shuffle_rng.permutation(n))
    stream = []
    while len(stream) < 6 * size:
        stream.extend(order)
        order = list(shuffle_rng.permutation(n))
    batches = [[data[i] for i in stream[k * size:(k + 1) * size]] for k in range(6)]

    prompt = prompt_from_ids([model.neutral_token_id] * cfg.prompt_length, model)
    noise_rng = np.random.default_rng(noise_ss)
    allowed = allowed_token_ids(model, "no-special")
    for step, batch in enumerate(batches):
        bd, grad = energy_and_grad(prompt, batch, task, model, cfg.energy)
        assert rec.per_step[step].energy.total == bd.total, step
        prompt = langevin_step(prompt, grad, cfg.eta, 0.0, noise_rng,
                               model.embedding_table(), allowed_ids=allowed)
        assert rec.per_step[step].token_ids == prompt.token_ids, step


def test_chain_init_text_truncates_and_pads(model, task, small_data):
    cfg = small_cfg(init_text="great movie fun bright sharp", prompt_length=3,
                    schedule=NoiseSchedule(0.0, 0.0, 1), steps=1, eta=1e-9)
    rec = run_chain(task, model, cfg, small_data)
    # a vanishing step keeps the initial tokens: the first three words
    assert rec.per_step[0].token_ids == tuple(model.tokenize("great movie fun"))

    cfg = small_cfg(init_text="great", prompt_length=3,
                    schedule=NoiseSchedule(0.0, 0.0, 1), steps=1, eta=1e-9)
    rec = run_chain(task, model, cfg, small_data)
    want = tuple(model.tokenize("great")) + (model.neutral_token_id,) * 2
    assert rec.per_step[0].token_ids == want

    # an empty seed string pads to the all-neutral prompt, as no seed does
    for init_text in ("", None):
        cfg = small_cfg(init_text=init_text, prompt_length=3,
                        schedule=NoiseSchedule(0.0, 0.0, 1), steps=1, eta=1e-9)
        rec = run_chain(task, model, cfg, small_data)
        assert rec.per_step[0].token_ids == (model.neutral_token_id,) * 3


def test_chain_adaptive_first_step_is_sign_step(model, task, small_data):
    """Bias-corrected Adam at t=1 reduces to g / (|g| + eps)."""
    cfg = small_cfg(optimizer="adaptive", seed=8,
                    schedule=NoiseSchedule(0.0, 0.0, 1), steps=1, eta=0.9)
    rec = run_chain(task, model, cfg, small_data)

    noise_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    order = shuffle_rng.permutation(len(small_data))
    batch0 = [small_data[i] for i in order[: cfg.batch_size]]
    init = prompt_from_ids([model.neutral_token_id] * cfg.prompt_length, model)
    _, grad = energy_and_grad(init, batch0, task, model, cfg.energy)
    precond = grad / (np.abs(grad) + 1e-8)
    stepped = langevin_step(init, precond, cfg.eta, 0.0,
                            np.random.default_rng(noise_ss),
                            model.embedding_table(),
                            allowed_ids=allowed_token_ids(model, "no-special"))
    assert rec.per_step[0].token_ids == stepped.token_ids


def test_chain_adaptive_and_plain_differ(model, task, small_data):
    plain = run_chain(task, model, small_cfg(seed=2), small_data)
    adaptive = run_chain(task, model, small_cfg(seed=2, optimizer="adaptive"),
                         small_data)
    assert [s.token_ids for s in plain.per_step] != \
        [s.token_ids for s in adaptive.per_step]


def test_chain_empty_data_rejected(model, task):
    with pytest.raises(UsageError):
        run_chain(task, model, small_cfg(), [])


@pytest.mark.parametrize("bad", [Example("great fun"), Example("great fun", "maybe")],
                         ids=["unlabeled", "foreign-label"])
def test_supervised_chain_refuses_bad_data_before_step_0(model, task, small_data,
                                                         monkeypatch, bad):
    calls = {"n": 0}

    def counting(*args):
        calls["n"] += 1
        return energy_and_grad(*args)

    monkeypatch.setattr("promptsearch.sampler.energy_and_grad", counting)
    data = [*small_data, bad]
    with pytest.raises(DataError):
        run_chain(task, model, small_cfg(steps=50, schedule=NoiseSchedule(1.0, 1e-4, 50),
                                         batch_size=4), data)
    assert calls["n"] == 0
    # an unsupervised chain reads no label, so the same data runs
    rec = run_chain(task, model, small_cfg(energy=EnergyConfig.unsupervised()), data)
    assert rec.fault is None and calls["n"] == 12


def test_chain_nonfinite_energy_aborts_with_partial_record(model, task,
                                                           small_data,
                                                           monkeypatch, tmp_path):
    calls = {"n": 0}
    real = energy_and_grad

    def flaky(prompt, batch, t, m, cfg):
        calls["n"] += 1
        if calls["n"] == 4:
            return EnergyBreakdown(total=float("nan"), per_term={}), \
                np.zeros_like(prompt.entries)
        return real(prompt, batch, t, m, cfg)

    monkeypatch.setattr("promptsearch.sampler.energy_and_grad", flaky)
    rec = run_chain(task, model, small_cfg(), small_data)
    assert rec.fault == "non-finite energy at step 3"
    assert len(rec.per_step) == 3
    # the partial record still serializes and round-trips
    assert load_record(save_record(rec, tmp_path / "chain.json")).fault == rec.fault


def test_chain_nonfinite_gradient_aborts(model, task, small_data, monkeypatch):
    calls = {"n": 0}
    real = energy_and_grad

    def flaky(prompt, batch, t, m, cfg):
        calls["n"] += 1
        if calls["n"] == 2:
            g = np.zeros_like(prompt.entries)
            g[0, 0] = np.inf
            return EnergyBreakdown(total=1.0, per_term={}), g
        return real(prompt, batch, t, m, cfg)

    monkeypatch.setattr("promptsearch.sampler.energy_and_grad", flaky)
    rec = run_chain(task, model, small_cfg(), small_data)
    assert rec.fault == "non-finite gradient at step 1"
    assert len(rec.per_step) == 1


def test_chain_model_fault_yields_partial_record(model, task, small_data):
    # supervised energies run one forward per example: batch_size per step
    cfg = small_cfg()
    faulty = CountingModel(model, fail_on_forward=3 * cfg.batch_size + 2)
    rec = run_chain(task, faulty, cfg, small_data)
    assert rec.fault is not None and "non-finite logits" in rec.fault
    assert [s.index for s in rec.per_step] == [0, 1, 2]
    clean = run_chain(task, model, cfg, small_data)
    assert rec.per_step == clean.per_step[:3]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_chain_adam_overflow_faults_instead_of_freezing(model, task, small_data,
                                                        monkeypatch):
    def huge(prompt, batch, t, m, cfg):
        # finite, but its square overflows the second-moment estimate
        return EnergyBreakdown(total=1.0, per_term={}), \
            np.full_like(prompt.entries, 1e200)

    monkeypatch.setattr("promptsearch.sampler.energy_and_grad", huge)
    rec = run_chain(task, model, small_cfg(optimizer="adaptive"), small_data)
    assert rec.fault == "non-finite gradient moment at step 0"
    assert rec.per_step == ()


# -- records ------------------------------------------------------------------------------

def test_record_json_round_trip(model, task, small_data, tmp_path):
    rec = run_chain(task, model, small_cfg(seed=4), small_data)
    rec.metrics["accuracy"] = 0.75
    path = save_record(rec, tmp_path / "chain.json")
    loaded = load_record(path)
    assert loaded == rec
    assert save_record(loaded, tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_record_json_is_canonical(model, task, small_data, tmp_path):
    rec = run_chain(task, model, small_cfg(), small_data)
    text = save_record(rec, tmp_path / "chain.json").read_text(encoding="utf-8")
    assert text.endswith("\n")
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    assert "fault" not in doc  # omitted when clean
    assert set(doc) == {"config", "task_id", "steps", "final_prompt_text",
                        "metrics"}


def test_step_log_dict_schema():
    log = StepLog(index=3, energy=EnergyBreakdown(total=1.5,
                                                  per_term={"task": 1.0}),
                  token_ids=(2, 9))
    d = log.to_dict()
    assert d == {"i": 3, "energy": {"total": 1.5, "terms": {"task": 1.0}},
                 "token_ids": [2, 9]}
    assert StepLog.from_dict(d) == log


def test_final_token_ids_requires_steps():
    rec = ChainRecord(config=small_cfg(), task_id="t", per_step=(),
                      final_prompt_text="", fault="non-finite energy at step 0")
    with pytest.raises(UsageError):
        rec.final_token_ids


# -- selection -------------------------------------------------------------------------------

def make_record(seed, acc):
    return ChainRecord(config=small_cfg(seed=seed), task_id="t",
                       per_step=(StepLog(0, EnergyBreakdown(0.0, {}), (2,)),),
                       final_prompt_text="the",
                       metrics={"accuracy": acc})


def test_select_best_by_metric():
    chains = [make_record(0, 0.5), make_record(1, 0.9), make_record(2, 0.7)]
    assert select_best(chains).config.seed == 1


def test_select_best_tie_lowest_seed():
    chains = [make_record(5, 0.9), make_record(1, 0.9), make_record(3, 0.9)]
    assert select_best(chains).config.seed == 1


def test_select_best_tie_then_position():
    a, b = make_record(2, 0.9), make_record(2, 0.9)
    assert select_best([a, b]) is a


def test_select_best_callable_metric():
    chains = [make_record(0, 0.5), make_record(1, 0.9)]
    best = select_best(chains, validation_metric=lambda r: -r.metrics["accuracy"])
    assert best.config.seed == 0


def test_select_best_missing_metric():
    bad = ChainRecord(config=small_cfg(), task_id="t",
                      per_step=(StepLog(0, EnergyBreakdown(0.0, {}), (2,)),),
                      final_prompt_text="the")
    with pytest.raises(UsageError):
        select_best([bad])
    with pytest.raises(UsageError):
        select_best([])


# -- properties -----------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 10.0), st.floats(1e-8, 1.0), st.integers(2, 500),
       st.integers())
def test_beta_between_endpoints_property(start_scale, ratio, steps, i):
    start = start_scale
    end = start * ratio
    s = NoiseSchedule(start, end, steps)
    i = i % steps
    val = beta_at(s, i)
    assert end * (1 - 1e-12) <= val <= start * (1 + 1e-12)


# -- crash-safe writes ------------------------------------------------------------------

def _fail_encoding(monkeypatch):
    # a lone surrogate cannot be encoded: the write fails once the temp file exists
    monkeypatch.setattr("promptsearch.sampler.json",
                        SimpleNamespace(dumps=lambda *args, **kw: '{"steps": "\ud800"}'))


def _fail_replace(monkeypatch):
    # the temp file is complete, but moving it into place fails
    def refuse(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr("promptsearch.sampler.os.replace", refuse)


@pytest.mark.parametrize("fail", [_fail_encoding, _fail_replace])
def test_failed_save_keeps_previous_record_and_no_temp_file(monkeypatch, tmp_path,
                                                            fail):
    path = save_record(make_record(0, 0.5), tmp_path / "chain.json")
    before = path.read_bytes()
    fail(monkeypatch)
    with pytest.raises((UnicodeEncodeError, OSError)):
        save_record(make_record(1, 0.9), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["chain.json"]


def test_save_record_replaces_existing_file(tmp_path):
    path = save_record(make_record(0, 0.5), tmp_path / "chain.json")
    assert save_record(make_record(1, 0.9), path) == path
    assert load_record(path) == make_record(1, 0.9)
    assert [p.name for p in tmp_path.iterdir()] == ["chain.json"]


@pytest.mark.parametrize("field, value", [
    ("final_prompt_text", 5), ("final_prompt_text", None),
    ("metrics", {"accuracy": "high"}), ("metrics", {"accuracy": True}),
    ("metrics", {"accuracy": math.nan}), ("metrics", {"accuracy": -math.inf}),
    ("metrics", {"accuracy": 10 ** 400}), ("metrics", [[1, 0.5]]),
])
def test_load_record_refuses_a_field_of_the_wrong_type(tmp_path, field, value):
    """A record whose prompt is not a string, or whose metric is not a finite
    real number, once loaded and failed later in ``eval`` or ``analyze``."""
    path = save_record(make_record(0, 0.5), tmp_path / "chain.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="chain.json"):
        load_record(path)


def test_load_record_keeps_integer_metrics(tmp_path):
    path = save_record(make_record(0, 1), tmp_path / "chain.json")
    assert load_record(path).metrics == {"accuracy": 1}


def test_load_record_refuses_a_directory(tmp_path):
    (tmp_path / "chain_x.json").mkdir()
    with pytest.raises(DataError, match="chain_x.json"):
        load_record(tmp_path / "chain_x.json")


def test_load_record_refuses_energy_terms_that_are_not_an_object(tmp_path):
    """Terms given as pairs with an int and a str key once loaded, and saving
    the record back then failed on sorting the keys."""
    path = save_record(make_record(0, 0.5), tmp_path / "chain.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["steps"][0]["energy"]["terms"] = [[1, 2.0], ["task", 3.0]]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="chain.json"):
        load_record(path)
