"""Command-line entry point: ``tune``, ``eval``, and ``analyze``.

``tune`` runs the seed x hyperparameter grid and writes one chain record
JSON per run, each as its chain returns, then a manifest with a content
hash of each record (the manifest is the only artifact carrying timestamps,
so reruns with identical flags and data produce byte-identical records).
``eval`` scores chain records or a plain prompt file on a labeled dataset
and appends metrics into the records.  ``analyze`` assembles the
diagnostics report JSON.  Both refuse a record tuned for another task or
another ``--model`` before writing anything.

Each option is declared once, as a row of its command's table: the flag is
``--key`` with dashes and the key in the optional ``--config`` JSON file is
``key`` (``{"lambda_fluency": [0.0, 0.1], "steps": 200}``).  A flag
overrides the config file, which overrides the row's default, and a value
from either is parsed and checked by the same row, so a malformed or
out-of-range value exits 2 with one ``error:`` line naming the key.  A
config value is parsed as the text its flag would carry: ``{"steps": 2.7}``
fails as ``--steps 2.7`` does instead of truncating.  The
grid options ``m``, ``eta``, ``lambda_fluency`` and ``lambda_domain`` take
comma-separated (or JSON) lists of distinct values; ``seeds`` takes either
a count N (seeds 0..N-1) or an explicit list of distinct seeds; an empty
grid, or one naming a value twice, is an error.

Exit codes: 0 success, 1 runtime fault (partial artifacts are kept),
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .analysis import LocalContinuationGenerator, diagnostics_report
from .energies import EnergyConfig
from .errors import (
    DataError,
    ModelFault,
    NumericalFault,
    PromptSearchError,
    UsageError,
)
from .metrics import accuracy, dist1, log_perplexity
from .model import load_adapter
from .sampler import (
    ChainRecord,
    NoiseSchedule,
    SamplerConfig,
    _write_json_atomic,
    load_record,
    run_chain,
    save_record,
)
from .synthetic import synthetic_task
from .tasks import builtin_tasks, load_dataset, render, task_from_file, verbalizer_token_ids

__all__ = ["main", "cmd_tune", "cmd_eval", "cmd_analyze"]


def _boolean(value) -> bool:
    """A flag's ``True`` or a JSON boolean; anything else (``"no"``) is invalid."""
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def _list(parse):
    """Parser of a comma-separated string, a JSON list or a single JSON value."""
    def parse_list(value) -> list:
        if isinstance(value, list):
            return [parse(v) for v in value]
        return [parse(v) for v in str(value).split(",") if v.strip()]
    return parse_list


def _flag_text(value):
    """A config value spelled as its flag would be: a JSON scalar becomes its
    text (so ``2.7`` fails an integer option as ``--steps 2.7`` does, rather
    than truncating), and a list its elements' texts."""
    if isinstance(value, list):
        return [str(v) for v in value]
    return str(value)


def _may_be_directory(value) -> bool:
    """Whether ``value`` and each of its parents is a directory or absent."""
    path = Path(value)
    return all(p.is_dir() or not p.exists() for p in (path, *path.parents))


def _file_in_directory(value) -> bool:
    """Whether ``value`` names a file path (not a directory) in an existing directory."""
    path = Path(value)
    return path.parent.is_dir() and not path.is_dir()


def _seeds(value) -> list[int]:
    """A count N (seeds 0..N-1), or an explicit comma-separated or JSON list."""
    if isinstance(value, list) or "," in str(value):
        return _list(int)(value)
    return list(range(int(value)))


def _distinct(values) -> bool:
    """A grid is non-empty and names no value twice (each would rerun a chain)."""
    return bool(values) and len(set(values)) == len(values)


_GRID = (_distinct, "non-empty and distinct")
_REPORT = (_file_in_directory, "a file path in an existing directory")

# One row per option: (key, parse, default, check, help).  The flag is
# ``--key`` with dashes and the config-file key is ``key``; a value from
# either is parsed with ``parse`` and tested with ``check``, a (predicate,
# description) pair or None.  A None default marks an option that may stay
# unset.  Values only the sampler's and energy's configs interpret
# (``energy_sign``, ``optimizer``, ``allowed_vocab``) are checked there.
_COMMON = (
    ("task", str, None, None, "built-in task name"),
    ("task_file", str, None, None, "JSON task definition file"),
    ("model", str, "reference:0", None, "adapter locator, e.g. reference:0"),
)

_COMMANDS = {
    "tune": ("run the sampler grid and persist chains", _COMMON + (
        ("data", str, None, None, "training examples (JSONL)"),
        ("val_data", str, None, None, "validation examples (JSONL)"),
        ("out_dir", str, "runs", (_may_be_directory, "a directory or a new path"),
         "directory for chain records + manifest"),
        ("mode", str, "supervised", (lambda mode: mode in ("supervised", "unsupervised"),
                                     "supervised or unsupervised"),
         "supervised or unsupervised"),
        ("m", _list(int), 10, _GRID, "prompt length(s), comma-separated"),
        ("steps", int, 5000, None, "sampler steps per chain"),
        ("batch_size", int, 16, None, "examples per energy evaluation"),
        ("eta", _list(float), 1.0, _GRID, "step size(s), comma-separated"),
        ("beta_start", float, 1.0, None, "noise variance at the first step"),
        ("beta_end", float, 1e-4, None, "noise variance at the last step"),
        ("lambda_fluency", _list(float), 0.003, _GRID,
         "fluency weight(s), supervised mode"),
        ("lambda_domain", _list(float), 0.003, _GRID,
         "domain weight(s), unsupervised mode"),
        ("energy_sign", str, "intent", None,
         "intent or literal: unsupervised combination sign (see energies docs)"),
        ("optimizer", str, "adaptive", None, "plain or adaptive"),
        ("seeds", _seeds, 5,
         (lambda seeds: _distinct(seeds) and min(seeds) >= 0,
          "non-empty, distinct and each >= 0"),
         "count N (0..N-1) or comma-separated list"),
        ("allowed_vocab", str, "no-special", None, "all or no-special"),
        ("init_text", str, None, None, "seed string for prompt initialization"),
        ("jobs", int, 1, (lambda n: n >= 1, ">= 1"), "parallel chain workers"),
    )),
    "eval": ("score chains or a prompt file", _COMMON + (
        ("chains", str, None, None, "directory of chain record JSON files"),
        ("prompts", str, None, None, "text file, one prompt per line"),
        ("data", str, None, None, "labeled eval examples (JSONL)"),
        ("include_empty", _boolean, False, None, "add the no-prompt baseline row"),
    )),
    "analyze": ("write the diagnostics report JSON", _COMMON + (
        ("chains", str, None, None, "directory of chain record JSON files"),
        ("data", str, None, None, "labeled examples for baseline accuracy (JSONL)"),
        ("human_prompts", str, None, None, "text file of human-written prompts"),
        ("random_prompts", str, None, None, "text file of random baseline prompts"),
        ("include_empty", _boolean, False, None, "add the no-prompt baseline row"),
        ("report", str, None, _REPORT, "output report path (default: <chains>/report.json)"),
        ("effective_quantile", float, 0.9, (lambda q: 0.0 <= q <= 1.0, "in [0, 1]"),
         "accuracy quantile defining 'effective' prompts"),
        ("continuations", int, 0, (lambda k: k >= 0, ">= 0"),
         "sampled continuations per prompt for word counts (0 = off)"),
        ("nucleus_p", float, 0.95, (lambda p: 0.0 < p <= 1.0, "in (0, 1]"),
         "nucleus sampling mass for continuations"),
        ("continuation_length", int, 100, (lambda n: n >= 1, ">= 1"),
         "tokens per sampled continuation"),
        ("continuation_seed", int, 0, (lambda seed: seed >= 0, ">= 0"),
         "seed of the continuation sampler"),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptsearch",
        description="Gradient-guided search for discrete, readable prompts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON config file; flags take precedence")
        for key, parse, _, _, text in table:
            flag = "--" + key.replace("_", "-")
            if parse is _boolean:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, help=text)
    return parser


def _options(ns: argparse.Namespace) -> tuple[dict, set]:
    """The command's options, each from its flag, else the ``--config`` file,
    else the table's default, parsed and checked by its row.

    Returns the options and the set of keys set explicitly (by flag or
    config), which mode validation needs.  A malformed value, or one its
    row's check rejects, is a ``UsageError`` naming the key.
    """
    table = _COMMANDS[ns.command][1]
    config = {}
    if ns.config:
        path = Path(ns.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as e:
            raise UsageError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(config, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        unknown = set(config) - {row[0] for row in table}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    opts, explicit = {}, set()
    for key, parse, default, check, _ in table:
        flag = getattr(ns, key)
        if flag is not None or key in config:
            explicit.add(key)
        value = flag if flag is not None else config.get(key, default)
        if value is None and default is None:
            opts[key] = None
            continue
        if flag is None and key in config and parse is not _boolean:
            value = _flag_text(value)
        try:
            opts[key] = parse(value)
        except (TypeError, ValueError):
            raise UsageError(f"invalid value for {key}: {value!r}") from None
        if check is not None and not check[0](opts[key]):
            raise UsageError(f"{key} must be {check[1]}, got {value!r}")
    return opts, explicit


def _resolve_task(opts: dict):
    name, path = opts.get("task"), opts.get("task_file")
    if (name is None) == (path is None):
        raise UsageError("exactly one of --task / --task-file is required")
    if path is not None:
        return task_from_file(path)
    known = {t.id: t for t in (*builtin_tasks(), synthetic_task())}
    if name not in known:
        raise UsageError(f"unknown task {name!r}; known tasks: {sorted(known)}")
    return known[name]


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


def _tune_worker(task, model_spec: str, cfg: SamplerConfig, data) -> ChainRecord:
    return run_chain(task, load_adapter(model_spec), cfg, data)


def _chain_records(task, model, cfgs: list[SamplerConfig], data, n_jobs: int):
    """Each configuration's chain record in grid order, yielded as it returns."""
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            yield from pool.map(_tune_worker, itertools.repeat(task),
                                [cfg.model_spec for cfg in cfgs], cfgs,
                                itertools.repeat(data))
    else:
        for cfg in cfgs:
            yield run_chain(task, model, cfg, data)


def cmd_tune(ns: argparse.Namespace) -> int:
    opts, explicit = _options(ns)
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
    lams = opts["lambda_fluency" if mode == "supervised" else "lambda_domain"]
    schedule = NoiseSchedule(beta_start=opts["beta_start"], beta_end=opts["beta_end"],
                             steps=opts["steps"])

    task = _resolve_task(opts)
    model = load_adapter(opts["model"])
    verbalizer_token_ids(task, model)  # each label word one token of this model
    data = load_dataset(opts["data"], task if mode == "supervised" else None)
    if mode == "supervised":
        _require_labeled(data, "supervised tuning")
    val = None
    if opts["val_data"] is not None:
        val = load_dataset(opts["val_data"], task)
        _require_labeled(val, "validation")
    max_len = getattr(model, "max_len", None)
    if max_len is not None:
        longest = max((len(render(task, ex.text, model)) for ex in data + (val or [])),
                      default=0)
        if max(opts["m"]) + longest > max_len:
            raise UsageError(
                f"prompt length {max(opts['m'])} plus the longest rendered example "
                f"({longest} tokens) exceeds the model's max_len {max_len}"
            )

    jobs_spec: list[tuple[str, SamplerConfig]] = []
    for gi, (m, eta, lam) in enumerate(itertools.product(opts["m"], opts["eta"], lams)):
        energy = (EnergyConfig.supervised(lam) if mode == "supervised"
                  else EnergyConfig.unsupervised(lam, sign=opts["energy_sign"]))
        for seed in opts["seeds"]:
            cfg = SamplerConfig(
                eta=eta, schedule=schedule, steps=opts["steps"],
                batch_size=opts["batch_size"], seed=seed, energy=energy,
                optimizer=opts["optimizer"], prompt_length=m,
                init_text=opts["init_text"], allowed_vocab=opts["allowed_vocab"],
                model_spec=opts["model"],
            )
            jobs_spec.append((f"chain_{gi:03d}_seed{seed}.json", cfg))

    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _chain_records(task, model, [cfg for _, cfg in jobs_spec], data,
                             opts["jobs"])
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
    _write_json_atomic(out_dir / "manifest.json", manifest)
    print(f"wrote {len(manifest_chains)} chains + manifest to {out_dir}")
    return 1 if any_fault else 0


def _load_chains(chains_dir: str, task, model_spec: str) -> dict[Path, ChainRecord]:
    """The directory's ``chain_*.json`` records by path.  A record tuned for
    another task, or with a ``config.model_spec`` other than ``model_spec``,
    is a ``UsageError`` naming its file, raised before anything is written."""
    root = Path(chains_dir)
    if not root.is_dir():
        raise UsageError(f"not a chain directory: {root}")
    files = sorted(root.glob("chain_*.json"))
    if not files:
        raise UsageError(f"no chain_*.json records under {root}")
    records = {}
    for path in files:
        record = records[path] = load_record(path)
        if record.task_id != task.id:
            raise UsageError(f"{path} was tuned for task {record.task_id!r}, "
                             f"not {task.id!r}")
        if record.config.model_spec not in (None, model_spec):
            raise UsageError(f"{path} was tuned with model "
                             f"{record.config.model_spec!r}, not {model_spec!r}")
    return records


def _read_prompt_file(path: str) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise UsageError(f"cannot read prompt file {path}: {e.strerror or e}") from e
    return [ln.strip() for ln in lines if ln.strip()]


def _read_manifest(chains_dir: Path) -> dict | None:
    """The directory's manifest, or None without one; a malformed manifest
    is a ``DataError``, raised before ``eval`` rewrites any record."""
    path = chains_dir / "manifest.json"
    if not path.is_file():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if all(isinstance(entry["file"], str) for entry in manifest.get("chains", [])):
            return manifest
    except (ValueError, KeyError, TypeError, AttributeError):
        pass
    raise DataError(f"malformed manifest {path}: not a JSON object whose "
                    "\"chains\" entries each name a \"file\"")


def _refresh_manifest(chains_dir: Path, manifest: dict) -> None:
    for entry in manifest.get("chains", []):
        fpath = chains_dir / entry["file"]
        if fpath.is_file():
            entry["sha256"] = _sha256(fpath)
    manifest["updated"] = _now()
    _write_json_atomic(chains_dir / "manifest.json", manifest)


def cmd_eval(ns: argparse.Namespace) -> int:
    opts, _ = _options(ns)
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
    manifest = None
    if opts["chains"] is not None:
        records = _load_chains(opts["chains"], task, opts["model"])
        rows += [(path.name, record.final_prompt_text) for path, record in records.items()]
        manifest = _read_manifest(Path(opts["chains"]))
    else:
        for i, text in enumerate(_read_prompt_file(opts["prompts"])):
            rows.append((f"prompt[{i}]", text))
    if opts["include_empty"]:
        rows.append(("(empty)", None))

    texts = [text for _, text in rows if text]
    set_dist1 = dist1(texts) if texts else None

    print(f"{'prompt':<44} {'accuracy':>8} {'ppl':>10} {'log_ppl':>8}")
    scores = {}  # row name -> metrics
    for name, text in rows:
        acc = accuracy(text, data, task, model)
        try:
            lp = log_perplexity(text, model) if text is not None else None
        except UsageError:
            lp = None
        row = scores[name] = {"accuracy": acc}
        columns = f"{'-':>10} {'-':>8}"
        if lp is not None:
            row.update(perplexity=math.exp(lp), log_perplexity=lp)
            columns = f"{row['perplexity']:>10.3f} {lp:>8.3f}"
        shown = text if text is not None else "(empty)"
        print(f"{shown[:44]:<44} {acc:>8.3f} {columns}")
    if set_dist1 is not None:
        print(f"dist1 over {len(texts)} prompts: {set_dist1:.4f}")

    for path, record in records.items():
        record.metrics.update(scores[path.name])
        if set_dist1 is not None:
            record.metrics["dist1"] = set_dist1
        save_record(record, path)
    if manifest is not None:
        _refresh_manifest(Path(opts["chains"]), manifest)
    return 0


def cmd_analyze(ns: argparse.Namespace) -> int:
    opts, _ = _options(ns)
    if opts["chains"] is None:
        raise UsageError("analyze requires --chains")
    task = _resolve_task(opts)
    chains = list(_load_chains(opts["chains"], task, opts["model"]).values())
    out = Path(opts["report"] or Path(opts["chains"]) / "report.json")
    if not _REPORT[0](out):
        raise UsageError(f"report must be {_REPORT[1]}, got {str(out)!r}")
    human = _read_prompt_file(opts["human_prompts"]) if opts["human_prompts"] else ()
    rand = _read_prompt_file(opts["random_prompts"]) if opts["random_prompts"] else ()
    if opts["data"] is None and (human or rand or opts["include_empty"] or any(
            "accuracy" not in rec.metrics for rec in chains)):
        raise UsageError("analyze needs --data to score baseline prompts and "
                         "records without an accuracy metric")
    model = load_adapter(opts["model"])
    val = None
    if opts["data"] is not None:
        val = load_dataset(opts["data"], task)
        _require_labeled(val, "analysis baselines")

    generator = None
    if opts["continuations"] > 0:
        generator = LocalContinuationGenerator(model, record_trace=False)

    report = diagnostics_report(
        chains, task, model, val_data=val, human_prompts=human,
        random_prompts=rand, include_empty=opts["include_empty"],
        effective_quantile=opts["effective_quantile"], generator=generator,
        continuations_per_prompt=opts["continuations"], nucleus_p=opts["nucleus_p"],
        continuation_length=opts["continuation_length"], seed=opts["continuation_seed"],
    )
    _write_json_atomic(out, report)

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
