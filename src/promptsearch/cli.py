"""Command-line entry point: ``tune``, ``eval``, and ``analyze``.

``tune`` runs the seed x hyperparameter grid and writes one chain record
JSON per run plus a manifest with a content hash of each record (the
manifest is the only artifact carrying timestamps, so reruns with identical
flags and data produce byte-identical records).  ``eval`` scores chain
records or a plain prompt file on a labeled dataset and appends metrics into
the records.  ``analyze`` assembles the diagnostics report JSON.

Flags override the optional ``--config`` JSON file, which in turn overrides
built-in defaults; config keys are the flag names with underscores
(``{"lambda_fluency": [0.0, 0.1], "steps": 200}``).  The grid flags
``--m``, ``--eta``, ``--lambda-fluency`` and ``--lambda-domain`` accept
comma-separated lists; ``--seeds`` accepts either a count N (seeds 0..N-1)
or an explicit comma-separated list.

Exit codes: 0 success, 1 runtime fault (partial artifacts are kept),
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .analysis import LocalContinuationGenerator, diagnostics_report
from .energies import EnergyConfig
from .errors import (
    ModelFault,
    NumericalFault,
    PromptSearchError,
    UsageError,
)
from .metrics import accuracy, dist1, log_perplexity, prompt_perplexity
from .model import load_adapter
from .sampler import (
    ChainRecord,
    NoiseSchedule,
    SamplerConfig,
    load_record,
    record_to_json,
    run_chain,
    save_record,
)
from .synthetic import synthetic_task
from .tasks import builtin_tasks, load_dataset, task_from_file, validate_task

__all__ = ["main", "cmd_tune", "cmd_eval", "cmd_analyze"]

_TUNE_DEFAULTS = {
    "task": None, "task_file": None, "data": None, "val_data": None,
    "out_dir": "runs", "mode": "supervised", "m": "10", "steps": 5000,
    "batch_size": 16, "eta": "1.0", "beta_start": 1.0, "beta_end": 1e-4,
    "lambda_fluency": "0.003", "lambda_domain": "0.003",
    "energy_sign": "intent", "optimizer": "adaptive", "seeds": "5",
    "model": "reference:0", "allowed_vocab": "no-special", "init_text": None,
    "jobs": 1,
}

_EVAL_DEFAULTS = {
    "task": None, "task_file": None, "chains": None, "prompts": None,
    "data": None, "model": "reference:0", "include_empty": False,
}

_ANALYZE_DEFAULTS = {
    "task": None, "task_file": None, "chains": None, "data": None,
    "model": "reference:0", "human_prompts": None, "random_prompts": None,
    "include_empty": False, "report": None, "effective_quantile": 0.9,
    "continuations": 0, "nucleus_p": 0.95, "continuation_length": 100,
    "continuation_seed": 0,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptsearch",
        description="Gradient-guided search for discrete, readable prompts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--task", help="built-in task name")
        p.add_argument("--task-file", help="JSON task definition file")
        p.add_argument("--model", help="adapter locator, e.g. reference:0")
        p.add_argument("--config", help="JSON config file; flags take precedence")

    tune = sub.add_parser("tune", help="run the sampler grid and persist chains")
    common(tune)
    tune.add_argument("--data", help="training examples (JSONL)")
    tune.add_argument("--val-data", help="validation examples (JSONL)")
    tune.add_argument("--out-dir", help="directory for chain records + manifest")
    tune.add_argument("--mode", choices=["supervised", "unsupervised"])
    tune.add_argument("--m", help="prompt length(s), comma-separated")
    tune.add_argument("--steps", type=int)
    tune.add_argument("--batch-size", type=int)
    tune.add_argument("--eta", help="step size(s), comma-separated")
    tune.add_argument("--beta-start", type=float)
    tune.add_argument("--beta-end", type=float)
    tune.add_argument("--lambda-fluency", help="fluency weight(s), supervised mode")
    tune.add_argument("--lambda-domain", help="domain weight(s), unsupervised mode")
    tune.add_argument("--energy-sign", choices=["literal", "intent"],
                      help="unsupervised combination sign (see energies docs)")
    tune.add_argument("--optimizer", choices=["plain", "adaptive"])
    tune.add_argument("--seeds", help="count N (0..N-1) or comma-separated list")
    tune.add_argument("--allowed-vocab", choices=["all", "no-special"])
    tune.add_argument("--init-text", help="seed string for prompt initialization")
    tune.add_argument("--jobs", type=int, help="parallel chain workers")

    ev = sub.add_parser("eval", help="score chains or a prompt file")
    common(ev)
    ev.add_argument("--chains", help="directory of chain record JSON files")
    ev.add_argument("--prompts", help="text file, one prompt per line")
    ev.add_argument("--data", help="labeled eval examples (JSONL)")
    ev.add_argument("--include-empty", action="store_true", default=None,
                    help="add the no-prompt baseline row")

    an = sub.add_parser("analyze", help="write the diagnostics report JSON")
    common(an)
    an.add_argument("--chains", help="directory of chain record JSON files")
    an.add_argument("--data", help="labeled examples for baseline accuracy (JSONL)")
    an.add_argument("--human-prompts", help="text file of human-written prompts")
    an.add_argument("--random-prompts", help="text file of random baseline prompts")
    an.add_argument("--include-empty", action="store_true", default=None)
    an.add_argument("--report", help="output report path (default: <chains>/report.json)")
    an.add_argument("--effective-quantile", type=float,
                    help="accuracy quantile defining 'effective' prompts")
    an.add_argument("--continuations", type=int,
                    help="sampled continuations per prompt for word counts (0 = off)")
    an.add_argument("--nucleus-p", type=float)
    an.add_argument("--continuation-length", type=int)
    an.add_argument("--continuation-seed", type=int)
    return parser


def _merge_options(ns: argparse.Namespace, defaults: dict) -> tuple[dict, set]:
    """Apply precedence flags > config file > defaults.

    Returns the merged options and the set of keys set explicitly (by flag
    or config), which mode validation needs.
    """
    config = {}
    if getattr(ns, "config", None):
        path = Path(ns.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as e:
            raise UsageError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(config, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        unknown = set(config) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    explicit = set()
    for key, default in defaults.items():
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            merged[key] = flag_value
            explicit.add(key)
        elif key in config:
            merged[key] = config[key]
            explicit.add(key)
        else:
            merged[key] = default
    return merged, explicit


def _option(opts: dict, key: str, parse):
    """``parse(opts[key])``, with a malformed value reported as a usage error."""
    try:
        return parse(opts[key])
    except (TypeError, ValueError):
        raise UsageError(f"invalid value for {key}: {opts[key]!r}") from None


def _float_list(value) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list):
        return [float(v) for v in value]
    return [float(v) for v in str(value).split(",") if v.strip()]


def _int_list(value) -> list[int]:
    if isinstance(value, int):
        return [value]
    if isinstance(value, list):
        return [int(v) for v in value]
    return [int(v) for v in str(value).split(",") if v.strip()]


def _parse_seeds(value) -> list[int]:
    if isinstance(value, list):
        return [int(v) for v in value]
    text = str(value)
    if "," in text:
        return [int(v) for v in text.split(",") if v.strip()]
    return list(range(int(text)))


def _resolve_task(opts: dict):
    name, path = opts.get("task"), opts.get("task_file")
    if (name is None) == (path is None):
        raise UsageError("exactly one of --task / --task-file is required")
    if path is not None:
        return task_from_file(path)
    known = {t.id: t for t in builtin_tasks()}
    if name in known:
        return known[name]
    if name == "synthetic-2label":
        return synthetic_task()
    raise UsageError(
        f"unknown task {name!r}; built-ins: {sorted(known)} + ['synthetic-2label']"
    )


def _require_labeled(data, where: str):
    missing = [i for i, ex in enumerate(data) if ex.label is None]
    if missing:
        raise UsageError(
            f"{where} needs labels on every example; first missing at index {missing[0]}"
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _tune_worker(task, model_spec: str, cfg_dict: dict, data) -> ChainRecord:
    model = load_adapter(model_spec)
    return run_chain(task, model, SamplerConfig.from_dict(cfg_dict), data)


def cmd_tune(ns: argparse.Namespace) -> int:
    opts, explicit = _merge_options(ns, _TUNE_DEFAULTS)
    mode = opts["mode"]
    if mode == "supervised":
        offending = {"lambda_domain", "energy_sign"} & explicit
        if offending:
            raise UsageError(
                f"supervised mode does not accept {sorted(offending)}"
            )
    else:
        if "lambda_fluency" in explicit:
            raise UsageError("unsupervised mode does not accept lambda_fluency")
    if opts["data"] is None:
        raise UsageError("tune requires --data")
    seeds = _option(opts, "seeds", _parse_seeds)
    ms = _option(opts, "m", _int_list)
    etas = _option(opts, "eta", _float_list)
    lams = _option(opts, "lambda_fluency" if mode == "supervised"
                   else "lambda_domain", _float_list)
    steps = _option(opts, "steps", int)
    batch_size = _option(opts, "batch_size", int)
    n_jobs = _option(opts, "jobs", int)
    schedule = NoiseSchedule(beta_start=_option(opts, "beta_start", float),
                             beta_end=_option(opts, "beta_end", float),
                             steps=steps)

    task = _resolve_task(opts)
    model = load_adapter(opts["model"])
    validate_task(task, model)
    data = load_dataset(opts["data"], task if mode == "supervised" else None)
    if mode == "supervised":
        _require_labeled(data, "supervised tuning")
    val = None
    if opts["val_data"] is not None:
        val = load_dataset(opts["val_data"], task)
        _require_labeled(val, "validation")

    jobs_spec: list[tuple[str, SamplerConfig]] = []
    for gi, (m, eta, lam) in enumerate(itertools.product(ms, etas, lams)):
        energy = (EnergyConfig.supervised(lam) if mode == "supervised"
                  else EnergyConfig.unsupervised(lam, sign=opts["energy_sign"]))
        for seed in seeds:
            cfg = SamplerConfig(
                eta=eta, schedule=schedule, steps=steps,
                batch_size=batch_size, seed=seed, energy=energy,
                optimizer=opts["optimizer"], prompt_length=m,
                init_text=opts["init_text"], allowed_vocab=opts["allowed_vocab"],
                model_spec=opts["model"],
            )
            jobs_spec.append((f"chain_{gi:03d}_seed{seed}.json", cfg))

    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [pool.submit(_tune_worker, task, opts["model"],
                                   cfg.to_dict(), data)
                       for _, cfg in jobs_spec]
            records = [f.result() for f in futures]
    else:
        records = [run_chain(task, model, cfg, data) for _, cfg in jobs_spec]

    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_chains = []
    any_fault = False
    for (fname, cfg), record in zip(jobs_spec, records):
        if record.fault is not None:
            any_fault = True
            print(f"fault in {fname}: {record.fault}", file=sys.stderr)
        elif val is not None:
            record.metrics["accuracy"] = accuracy(record.final_prompt_text,
                                                  val, task, model)
        path = save_record(record, out_dir / fname)
        manifest_chains.append({"file": fname, "config": cfg.to_dict(),
                                "sha256": _sha256(path)})
        print(f"{fname}: {record.final_prompt_text!r}"
              + (f"  acc={record.metrics['accuracy']:.3f}"
                 if "accuracy" in record.metrics else ""))

    manifest = {"created": _now(), "task_id": task.id, "model": opts["model"],
                "chains": manifest_chains}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} chains + manifest to {out_dir}")
    return 1 if any_fault else 0


def _chain_files(chains_dir: str) -> list[Path]:
    root = Path(chains_dir)
    if not root.is_dir():
        raise UsageError(f"not a chain directory: {root}")
    files = sorted(root.glob("chain_*.json"))
    if not files:
        raise UsageError(f"no chain_*.json records under {root}")
    return files


def _read_prompt_file(path: str) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise UsageError(f"cannot read prompt file {path}: {e.strerror or e}") from e
    return [ln.strip() for ln in lines if ln.strip()]


def _refresh_manifest(chains_dir: Path):
    mpath = chains_dir / "manifest.json"
    if not mpath.is_file():
        return
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    for entry in manifest.get("chains", []):
        fpath = chains_dir / entry["file"]
        if fpath.is_file():
            entry["sha256"] = _sha256(fpath)
    manifest["updated"] = _now()
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")


def cmd_eval(ns: argparse.Namespace) -> int:
    opts, _ = _merge_options(ns, _EVAL_DEFAULTS)
    if (opts["chains"] is None) == (opts["prompts"] is None):
        raise UsageError("exactly one of --chains / --prompts is required")
    if opts["data"] is None:
        raise UsageError("eval requires --data")
    task = _resolve_task(opts)
    model = load_adapter(opts["model"])
    data = load_dataset(opts["data"], task)
    _require_labeled(data, "eval")

    rows = []  # (name, prompt_text or None)
    records = {}
    if opts["chains"] is not None:
        for path in _chain_files(opts["chains"]):
            record = load_record(path)
            records[path] = record
            rows.append((path.name, record.final_prompt_text))
    else:
        for i, text in enumerate(_read_prompt_file(opts["prompts"])):
            rows.append((f"prompt[{i}]", text))
    if opts["include_empty"]:
        rows.append(("(empty)", None))

    texts = [text for _, text in rows if text]
    set_dist1 = dist1(texts) if texts else None

    print(f"{'prompt':<44} {'accuracy':>8} {'ppl':>10} {'log_ppl':>8}")
    results = []
    for name, text in rows:
        acc = accuracy(text, data, task, model)
        try:
            lp = log_perplexity(text, model) if text is not None else None
        except UsageError:
            lp = None
        ppl = None if lp is None else prompt_perplexity(text, model)
        results.append((name, text, acc, ppl, lp))
        shown = text if text is not None else "(empty)"
        print(f"{shown[:44]:<44} {acc:>8.3f} "
              + (f"{ppl:>10.3f} {lp:>8.3f}" if lp is not None
                 else f"{'-':>10} {'-':>8}"))
    if set_dist1 is not None:
        print(f"dist1 over {len(texts)} prompts: {set_dist1:.4f}")

    for path, record in records.items():
        for name, text, acc, ppl, lp in results:
            if name == path.name:
                record.metrics["accuracy"] = acc
                if ppl is not None:
                    record.metrics["perplexity"] = ppl
                    record.metrics["log_perplexity"] = lp
                if set_dist1 is not None:
                    record.metrics["dist1"] = set_dist1
        save_record(record, path)
    if records:
        _refresh_manifest(Path(opts["chains"]))
    return 0


def cmd_analyze(ns: argparse.Namespace) -> int:
    opts, _ = _merge_options(ns, _ANALYZE_DEFAULTS)
    if opts["chains"] is None:
        raise UsageError("analyze requires --chains")
    k = _option(opts, "continuations", int)
    quantile = _option(opts, "effective_quantile", float)
    nucleus_p = _option(opts, "nucleus_p", float)
    length = _option(opts, "continuation_length", int)
    continuation_seed = _option(opts, "continuation_seed", int)
    task = _resolve_task(opts)
    model = load_adapter(opts["model"])
    val = None
    if opts["data"] is not None:
        val = load_dataset(opts["data"], task)
        _require_labeled(val, "analysis baselines")
    chains = [load_record(p) for p in _chain_files(opts["chains"])]
    human = _read_prompt_file(opts["human_prompts"]) if opts["human_prompts"] else ()
    rand = _read_prompt_file(opts["random_prompts"]) if opts["random_prompts"] else ()

    generator = None
    if k > 0:
        generator = LocalContinuationGenerator(model, record_trace=False)

    report = diagnostics_report(
        chains, task, model, val_data=val, human_prompts=human,
        random_prompts=rand, include_empty=bool(opts["include_empty"]),
        effective_quantile=quantile, generator=generator,
        continuations_per_prompt=k, nucleus_p=nucleus_p,
        continuation_length=length, seed=continuation_seed,
    )
    out = Path(opts["report"]) if opts["report"] else Path(opts["chains"]) / "report.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    print(f"report written to {out} ({len(report['prompts'])} prompt rows)")
    if report["spearman"] is not None:
        print(f"spearman(entropy, accuracy): rho={report['spearman']['rho']:+.3f} "
              f"p={report['spearman']['p']:.4f}")
    df = report["domain_freq"]
    if df["effective"] and df["random"]:
        print(f"domain words: effective mean {df['effective']['mean_freq']:.2f} "
              f"vs random mean {df['random']['mean_freq']:.2f} "
              f"(paired t-test p={df['t_test_p']})")
    signs = {rec.config.energy.sign for rec in chains
             if rec.config.energy.mode == "unsupervised"}
    if signs:
        print(f"note: unsupervised chains used energy sign(s) {sorted(signs)}; "
              "'intent' balances the label distribution, 'literal' peaks it")
    adaptives = any(rec.config.optimizer == "adaptive" for rec in chains)
    if adaptives:
        print("note: adaptive optimizer preconditions the gradient term only; "
              "the Langevin noise is added unpreconditioned")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    handlers = {"tune": cmd_tune, "eval": cmd_eval, "analyze": cmd_analyze}
    try:
        return handlers[ns.command](ns)
    except (ModelFault, NumericalFault) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return 1
    except PromptSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
