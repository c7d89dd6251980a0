"""Gradient-guided search for discrete, readable prompts.

The package tunes a short sequence of prompt embeddings with projected
Langevin dynamics — gradient steps plus annealed Gaussian noise, snapped to
the nearest vocabulary embeddings every step — so the result is always an
actual token sequence.  Supervised search minimizes task NLL plus a fluency
energy; unsupervised search balances the label distribution while keeping
the prompt domain-relevant.  Diagnostics relate prompt quality to label-word
calibration and domain-word usage.
"""

from .errors import (
    ConfigurationError,
    DataError,
    ModelFault,
    NumericalFault,
    PromptSearchError,
    TaskSpecError,
    UsageError,
)
from .model import (
    EmbeddingTable,
    ForwardPass,
    LabelDistribution,
    REFERENCE_VOCAB,
    SoftPrompt,
    TinyCausalLM,
    as_soft_prompt,
    label_word_distribution,
    load_adapter,
    make_reference_model,
    prompt_from_ids,
    register_adapter,
)
from .projection import allowed_token_ids, project, project_subset
from .tasks import (
    Example,
    TaskSpec,
    builtin_tasks,
    load_dataset,
    render,
    task_from_file,
    verbalizer_token_ids,
)
from .energies import (
    EnergyBreakdown,
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
from .sampler import (
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
from .metrics import accuracy, dist1, log_perplexity, prompt_perplexity
from .analysis import (
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
from .synthetic import POOL_A, POOL_B, synthetic_dataset, synthetic_task

__version__ = "0.1.0"

__all__ = [
    "PromptSearchError", "ConfigurationError", "TaskSpecError", "DataError",
    "UsageError", "ModelFault", "NumericalFault",
    "EmbeddingTable", "SoftPrompt", "LabelDistribution", "ForwardPass",
    "TinyCausalLM", "REFERENCE_VOCAB", "make_reference_model", "load_adapter",
    "register_adapter", "label_word_distribution", "as_soft_prompt",
    "prompt_from_ids",
    "project", "project_subset", "allowed_token_ids",
    "TaskSpec", "Example", "render", "verbalizer_token_ids", "load_dataset",
    "builtin_tasks", "task_from_file",
    "EnergyConfig", "EnergyBreakdown", "term_weights", "task_nll",
    "fluency_nll", "supervised_energy", "entropy_loss", "domain_nll",
    "unsupervised_energy", "energy_and_grad",
    "NoiseSchedule", "beta_at", "SamplerConfig", "StepLog", "ChainRecord",
    "langevin_step", "run_chain", "select_best", "save_record", "load_record",
    "accuracy", "log_perplexity", "prompt_perplexity", "dist1",
    "PromptDiagnostics", "label_entropy", "spearman", "domain_word_frequency",
    "LocalContinuationGenerator", "generate_continuations", "pmi_dc_predict",
    "paired_ttest", "diagnostics_report",
    "synthetic_task", "synthetic_dataset", "POOL_A", "POOL_B",
    "__version__",
]
