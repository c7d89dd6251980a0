"""Command-line entry point: ``tune``, ``eval``, and ``analyze``.

``tune`` runs the seed x hyperparameter grid and writes one chain record
JSON per run, each as its chain returns, then a manifest with a content
hash of each record (the manifest is the only artifact carrying timestamps,
so reruns with identical flags and data produce byte-identical records).
``eval`` scores chain records or a plain prompt file on a labeled dataset
and appends metrics into the records.  ``analyze`` assembles the
diagnostics report JSON.  Both refuse a record tuned for another task or
another ``--model`` before writing anything.  Every command reads its data
and prompt files before it loads a model, and refuses a file with no
examples (or, for ``eval --prompts`` without ``--include-empty``, no
prompts) there.

Each option is declared once, as a row of its command's table: the flag is
``--key`` with dashes and the key in the optional ``--config`` JSON file is
``key`` (``{"lambda_fluency": [0.0, 0.1], "steps": 200}``).  The config file
is read as the flags it stands for, given before the command line's, so a
flag overrides the config file, which overrides the row's default, and
every value is parsed and checked by its row as flag text: a malformed or
out-of-range value exits 2 with one ``error:`` line naming the key, as do
an unknown flag and a flag without its value.  A JSON list stands for its
values joined by commas and is taken by a grid row only; a JSON boolean
sets or leaves off the ``include_empty`` switch, which takes nothing else;
any other scalar stands for its text (``{"steps": 2.7}`` fails as
``--steps 2.7`` does instead of truncating).  A ``null``, an object or a
list outside a grid is refused for every key, even one a flag overrides
(leaving the key out gives its default).  ``tune`` builds every chain's
config before it reads any file, and refuses a batch larger than its
training data before it loads a model.  The grid options ``m``, ``eta``,
``lambda_fluency`` and ``lambda_domain`` take comma-separated lists of
distinct values; ``seeds`` takes either a count N (seeds 0..N-1) or a
comma-separated list of distinct seeds, each >= 0 (``3,`` is seed 3); an
empty grid, or one naming a value twice, is an error.  Right after the
model loads, each command checks that every label word is one token of the
model and that its longest prompt and longest rendered input fit the
model's ``max_len``, so ``eval`` and ``analyze`` print nothing before such
an error.

Exit codes: 0 success, 1 runtime fault (partial artifacts are kept),
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from pathlib import Path

from .analysis import LocalContinuationGenerator, diagnostics_report
from .energies import EnergyConfig, _rendered
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
from .tasks import (Example, _read_input, _read_json_object, _token_ids, builtin_tasks,
                    load_dataset, task_from_file, verbalizer_token_ids)

__all__ = ["main", "cmd_tune", "cmd_eval", "cmd_analyze"]


def _list(parse):
    """Parser of a comma-separated string."""
    def parse_list(value) -> list:
        return [parse(v) for v in str(value).split(",") if v.strip()]
    return parse_list


def _may_be_directory(value) -> bool:
    """Whether ``value`` is not empty (``Path("")`` is the current
    directory), holds no NUL, and it and each of its parents is a directory
    or absent."""
    path = Path(value)
    return value != "" and "\0" not in str(value) and all(
        p.is_dir() or not p.exists() for p in (path, *path.parents))


def _file_in_directory(value) -> bool:
    """Whether ``value`` holds no NUL and names a file path (not a directory)
    in an existing directory."""
    path = Path(value)
    return "\0" not in str(value) and path.parent.is_dir() and not path.is_dir()


def _seeds(value) -> list[int]:
    """A count N (seeds 0..N-1), or a comma-separated list of seeds, each >= 0."""
    seeds = _list(int)(value) if "," in str(value) else list(range(int(value)))
    if any(seed < 0 for seed in seeds):
        raise ValueError(value)
    return seeds


def _distinct(values) -> bool:
    """A grid is non-empty and names no value twice (each would rerun a chain)."""
    return bool(values) and len(set(values)) == len(values)


_GRID = (_distinct, "non-empty and distinct")
_REPORT = (_file_in_directory, "a file path in an existing directory")
# ``Path("")`` is the current directory, so an empty path would read it
_PATH = (lambda path: path != "", "a non-empty path")

# One row per option: (key, parse, default, check, help).  The flag is
# ``--key`` with dashes and the config-file key is ``key``; its text is
# parsed with ``parse`` and tested with ``check``, a (predicate,
# description) pair or None.  ``check`` ``_GRID`` marks a grid and ``parse``
# ``bool`` a switch.  A None default marks an option that may stay
# unset.  Values only the sampler's and energy's configs interpret
# (``energy_sign``, ``optimizer``, ``allowed_vocab``) are checked there.
_COMMON = (
    ("task", str, None, None, "built-in task name"),
    ("task_file", str, None, _PATH, "JSON task definition file"),
    ("model", str, "reference:0", None, "adapter locator, e.g. reference:0"),
)

_COMMANDS = {
    "tune": ("run the sampler grid and persist chains", _COMMON + (
        ("data", str, None, _PATH, "training examples (JSONL)"),
        ("val_data", str, None, _PATH, "validation examples (JSONL)"),
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
        ("seeds", _seeds, 5, _GRID, "count N (0..N-1) or comma-separated list"),
        ("allowed_vocab", str, "no-special", None, "all or no-special"),
        ("init_text", str, None, None, "seed string for prompt initialization"),
        ("jobs", int, 1, (lambda n: n >= 1, ">= 1"), "parallel chain workers"),
    )),
    "eval": ("score chains or a prompt file", _COMMON + (
        ("chains", str, None, _PATH, "directory of chain record JSON files"),
        ("prompts", str, None, _PATH, "text file, one prompt per line"),
        ("data", str, None, _PATH, "labeled eval examples (JSONL)"),
        ("include_empty", bool, False, None, "add the no-prompt baseline row"),
    )),
    "analyze": ("write the diagnostics report JSON", _COMMON + (
        ("chains", str, None, _PATH, "directory of chain record JSON files"),
        ("data", str, None, _PATH, "labeled examples for baseline accuracy (JSONL)"),
        ("human_prompts", str, None, _PATH, "text file of human-written prompts"),
        ("random_prompts", str, None, _PATH, "text file of random baseline prompts"),
        ("include_empty", bool, False, None, "add the no-prompt baseline row"),
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (an unknown flag, a flag without its
    value) are ``UsageError``s, so ``main`` returns 2 with one line."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="promptsearch",
        description="Gradient-guided search for discrete, readable prompts.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=about, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags take precedence")
        for key, parse, _, _, text in table:
            flag = "--" + key.replace("_", "-")
            if parse is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, help=text)
    return parser


def _config_flags(ns: argparse.Namespace) -> list[str]:
    """The flags the ``--config`` file stands for, in the file's key order.

    A JSON list on a grid row becomes its comma-joined values (one value
    keeps a trailing comma, so ``{"seeds": [3]}`` is seed 3, not a count), a
    JSON boolean sets or leaves off the switch, and any other scalar becomes
    its text.  An unknown key is a ``UsageError``; so is a ``null`` (leaving
    the key out gives its default), an object, a list outside a grid, or a
    switch that is not a boolean, each naming its key.
    """
    rows = {row[0]: row for row in _COMMANDS[ns.command][1]}
    config = _read_json_object(ns.config, "config file", UsageError)
    unknown = set(config) - set(rows)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in config.items():
        _, parse, _, check, _ = rows[key]
        flag = "--" + key.replace("_", "-")
        if parse is bool and isinstance(value, bool):
            flags += [flag] if value else []
        elif check is _GRID and isinstance(value, list):
            flags.append(f"{flag}={','.join(map(str, value))}" + "," * (len(value) == 1))
        elif parse is not bool and not isinstance(value, (list, dict, type(None))):
            flags.append(f"{flag}={value}")  # the `=` form carries a leading dash
        else:
            raise UsageError(f"invalid value for {key}: {value!r}")
    return flags


def _options(ns: argparse.Namespace) -> dict:
    """The command's options, each from its flag, else the table's default,
    parsed and checked by its row.  A malformed value, or one its row's
    check rejects, is a ``UsageError`` naming the key."""
    opts = {}
    for key, parse, default, check, _ in _COMMANDS[ns.command][1]:
        value = getattr(ns, key)
        value = default if value is None else value
        if value is None:  # an option without a default, left unset
            opts[key] = None
            continue
        try:
            opts[key] = parse(value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"invalid value for {key}: {value!r}") from None
        if check is not None and not check[0](opts[key]):
            raise UsageError(f"{key} must be {check[1]}, got {value!r}")
    return opts


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


def _load_data(path: str, task, where: str, labeled: bool = True) -> list:
    """The examples of the JSONL file ``path``, read before any model loads.

    A file with no examples is a ``UsageError`` naming ``where``.  With
    ``labeled``, labels are checked against ``task`` and an unlabeled
    example is one too.
    """
    data = load_dataset(path, task if labeled else None)
    if not data:
        raise UsageError(f"{where} needs at least one example; {path} holds none")
    missing = [i for i, ex in enumerate(data) if ex.label is None]
    if labeled and missing:
        raise UsageError(
            f"{where} needs labels on every example; first missing at index {missing[0]}"
        )
    return data


def _check_fit(task, model, prompt_length: int, examples) -> None:
    """Refuse, before any output, a label word that is not one token of
    ``model``, or a prompt of ``prompt_length`` tokens that with the longest
    rendered example would exceed the model's ``max_len``."""
    verbalizer_token_ids(task, model)
    longest = max((len(_token_ids(task, ex, model)) for ex in examples), default=0)
    if prompt_length + longest > model.max_len:
        raise UsageError(
            f"prompt length {prompt_length} plus the longest rendered example "
            f"({longest} tokens) exceeds the model's max_len {model.max_len}"
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _tune_worker(task, model_spec: str, cfg: SamplerConfig, data) -> ChainRecord:
    return run_chain(task, load_adapter(model_spec), cfg, data)


def _chain_records(task, model, cfgs: list[SamplerConfig], data, n_jobs: int):
    """Each configuration's chain record in grid order, yielded as it returns,
    with at most one worker process per chain.  Where a worker process dies,
    the records stop before the first chain that did not return."""
    n_jobs = min(n_jobs, len(cfgs))
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            try:
                yield from pool.map(_tune_worker, itertools.repeat(task),
                                    [cfg.model_spec for cfg in cfgs], cfgs,
                                    itertools.repeat(data))
            except BrokenProcessPool:
                return
    else:
        for cfg in cfgs:
            yield run_chain(task, model, cfg, data)


def cmd_tune(ns: argparse.Namespace) -> int:
    opts = _options(ns)
    mode = opts["mode"]
    if mode == "supervised":
        offending = [key for key in ("energy_sign", "lambda_domain")
                     if getattr(ns, key) is not None]
        if offending:
            raise UsageError(f"supervised mode does not accept {offending}")
    elif ns.lambda_fluency is not None:
        raise UsageError("unsupervised mode does not accept lambda_fluency")
    if opts["data"] is None:
        raise UsageError("tune requires --data")
    # the grid's configs check every chain value before any file is read
    lams = opts["lambda_fluency" if mode == "supervised" else "lambda_domain"]
    schedule = NoiseSchedule(beta_start=opts["beta_start"], beta_end=opts["beta_end"],
                             steps=opts["steps"])
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

    task = _resolve_task(opts)
    data = _load_data(opts["data"], task, f"{mode} tuning", labeled=mode == "supervised")
    if opts["batch_size"] > len(data):
        raise UsageError(f"batch_size {opts['batch_size']} exceeds the {len(data)} "
                         f"examples of {opts['data']}")
    val = None
    if opts["val_data"] is not None:
        val = _load_data(opts["val_data"], task, "validation")
    out_dir = Path(opts["out_dir"])
    stale = sorted({p.name for p in out_dir.glob("chain_*.json")}
                   - {fname for fname, _ in jobs_spec})
    if stale:
        raise UsageError(f"{out_dir / stale[0]} is not a record of this grid; remove "
                         "it or choose another out_dir")
    model = load_adapter(opts["model"])
    # each text is rendered once: the fit check, every chain and every
    # validation score read the same ids
    data = _rendered(data, task, model)
    val = None if val is None else _rendered(val, task, model)
    _check_fit(task, model, max(opts["m"]), data + (val or []))

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
    lost = [fname for fname, _ in jobs_spec[len(manifest_chains):]]
    if lost:
        print(f"fault: a worker process died; chains not written: {', '.join(lost)}",
              file=sys.stderr)
    return 1 if any_fault or lost else 0


def _load_chains(chains_dir: str, task, model_spec: str) -> dict[Path, ChainRecord]:
    """The directory's ``chain_*.json`` records by path.  A record tuned for
    another task, with a ``config.model_spec`` other than ``model_spec``, or
    whose final prompt text has no words, is a ``UsageError`` naming its
    file, raised before anything is written."""
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
        if not record.final_prompt_text.split():
            raise UsageError(f"{path} has a final prompt text with no words")
    return records


def _read_prompt_file(path: str) -> list[str]:
    lines = _read_input(path, "prompt file", UsageError).splitlines()
    return [ln.strip() for ln in lines if ln.strip()]


def _read_manifest(chains_dir: Path) -> dict | None:
    """The directory's manifest, or None without one; a malformed manifest
    is a ``DataError``, raised before ``eval`` rewrites any record."""
    path = chains_dir / "manifest.json"
    if not path.is_file():
        return None
    manifest = _read_json_object(path, "manifest", DataError)
    try:
        if all(isinstance(entry["file"], str) for entry in manifest.get("chains", [])):
            return manifest
    except (KeyError, TypeError):
        pass
    raise DataError(f"malformed manifest {path}: \"chains\" entries must each "
                    "name a \"file\"")


def _refresh_manifest(chains_dir: Path, manifest: dict) -> None:
    for entry in manifest.get("chains", []):
        fpath = chains_dir / entry["file"]
        if fpath.is_file():
            entry["sha256"] = _sha256(fpath)
    manifest["updated"] = _now()
    _write_json_atomic(chains_dir / "manifest.json", manifest)


def cmd_eval(ns: argparse.Namespace) -> int:
    opts = _options(ns)
    if (opts["chains"] is None) == (opts["prompts"] is None):
        raise UsageError("exactly one of --chains / --prompts is required")
    if opts["data"] is None:
        raise UsageError("eval requires --data")
    task = _resolve_task(opts)
    data = _load_data(opts["data"], task, "eval")

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
    if not rows:
        raise UsageError(f"no prompts in {opts['prompts']} and no --include-empty")
    model = load_adapter(opts["model"])
    data = _rendered(data, task, model)  # once for the fit check and every row
    texts = [text for _, text in rows if text]
    _check_fit(task, model, max((len(model.tokenize(t)) for t in texts), default=0), data)
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
    opts = _options(ns)
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
    val = None
    if opts["data"] is not None:
        val = _load_data(opts["data"], task, "analysis baselines")
    model = load_adapter(opts["model"])
    val = None if val is None else _rendered(val, task, model)  # once for every score
    prompts = [rec.final_prompt_text for rec in chains] + [*human, *rand]
    _check_fit(task, model, max((len(model.tokenize(t)) for t in prompts), default=0),
               [*(val or []), Example(task.domain_string)])

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
              f"(Welch t-test p={df['t_test_p']})")
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
    handlers = {"tune": cmd_tune, "eval": cmd_eval, "analyze": cmd_analyze}
    try:
        argv = sys.argv[1:] if argv is None else argv
        parser = _build_parser()
        ns = parser.parse_args(argv)
        if ns.config is not None:  # the file's flags first, so a given flag wins
            ns = parser.parse_args([argv[0], *_config_flags(ns), *argv[1:]])
        return handlers[ns.command](ns)
    except (ModelFault, NumericalFault) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return 1
    except PromptSearchError as exc:
        # one line, even for a message quoting a path with a line break in it
        print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
