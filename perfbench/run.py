"""Benchmark of the promptsearch CLI: end-to-end metrics, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload tune-sup --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

One run sets up a workload's inputs from ``--seed``, issues one warm-up
round, then issues rounds back to back (a closed loop with one client) for
``--seconds``.  It checks every round's outputs and prints a readable block
followed, on the last line, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` each timed round is issued
untraced and then again traced, and the metrics are per layer (see
spans.py).  The package is imported from ``src/`` of the same checkout.
See NOTES.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set to 1 before numpy is first imported: the benchmark is one
# single-threaded process, and BLAS must not start threads of its own.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOAD_NAMES = ("tune-sup", "tune-unsup", "score")
SETUP_REPEATS = 3

# End-to-end metric names and units, in report order.
END_TO_END = (("setup_s", "s"), ("round_s_p50", "s"), ("best_val_accuracy", "fraction"),
              ("peak_rss_mb", "MB"))


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, or None if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _environment(ticks_before, ticks_after) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_steal_share": steal,
            "machine": platform.machine()}


def closed_loop(step, seconds: float, min_rounds: int) -> list:
    """Call ``step(0)``, ``step(1)``, ... back to back until ``seconds`` have
    passed and ``min_rounds`` calls returned; return their results."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        if time.perf_counter() - start >= seconds and len(results) >= min_rounds:
            return results


def _round_problems(wl, rnd) -> list[str]:
    bad = [f"{inv.command} exited {inv.code}: {inv.error.strip()[-300:]}"
           for inv in rnd.invocations if inv.code != 0]
    return bad or wl.problems(rnd)


def _times_by_command(rounds) -> dict[str, list[float]]:
    by_command: dict[str, list[float]] = {}
    for rnd in rounds:
        for inv in rnd.invocations:
            by_command.setdefault(inv.command, []).append(inv.seconds)
    return by_command


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: float,
            work: Path, sizes=None) -> dict:
    """One benchmark run in the empty directory ``work``; returns the result
    document that ``_print_result`` prints.  ``import_s`` is the time the
    first import of the package took, which ``setup_s`` includes; ``sizes``
    overrides the inputs' sizes (``workloads.Sizes``), for tests."""
    import workloads
    from quantiles import percentile, percentile_name, tail_percentile
    from spans import LAYER_METRICS, Tracer, layer_metrics, self_times

    wl = workloads.make_workload(name, seed, sizes)

    setup_times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.prepare(work / f"setup{k}")
        setup_times.append(time.perf_counter() - start)

    def plain(index):
        return wl.run_round(index, work / "rounds" / f"{index:03d}")

    warm = wl.run_round(0, work / "warmup")
    if trace:
        tracer = Tracer()

        def twins(index):
            # each traced round right after its untraced twin, so that slow
            # phases of a shared machine fall on both sides of the overhead
            untraced = plain(index)
            with tracer.installed():
                return untraced, wl.run_round(index, work / "traced" / f"{index:03d}")

        timed, traced = map(list, zip(*closed_loop(twins, seconds, 1)))
        tracer.write(work / "spans.json")
    else:
        timed = closed_loop(plain, seconds, wl.min_rounds)
        traced = []

    checks = {"exit codes and outputs": [], "warm-up and its timed twin identical": []}
    failed_rounds = set()
    labelled = ([("warm-up", warm)] + [(f"round {r.index}", r) for r in timed]
                + [(f"traced round {r.index}", r) for r in traced])
    for label, rnd in labelled:
        problems = _round_problems(wl, rnd)
        if problems:
            failed_rounds.add(label)
            checks["exit codes and outputs"] += [f"{label}: {p}" for p in problems]
    if wl.fingerprint(warm) != wl.fingerprint(timed[0]):
        failed_rounds.add("round 0")
        checks["warm-up and its timed twin identical"].append("outputs differ")
    if trace:
        checks["traced rounds identical to untraced"] = []
        checks["layer self times sum to traced wall"] = []
        for untraced, rnd in zip(timed, traced):
            if wl.fingerprint(untraced) != wl.fingerprint(rnd):
                failed_rounds.add(f"traced round {rnd.index}")
                checks["traced rounds identical to untraced"].append(f"round {rnd.index} differs")
        traced_wall = sum(r.seconds for r in traced)
        covered = sum(self_times(tracer.spans))
        if abs(covered - traced_wall) > 0.01 * traced_wall:
            checks["layer self times sum to traced wall"].append(
                f"self times sum to {covered:.4f} s of {traced_wall:.4f} s")

    attempted = sum(len(r.invocations) for _, r in labelled)
    failed = sum(len(r.invocations) for label, r in labelled if label in failed_rounds)
    details = {"rounds": len(timed), "fail_ratio": failed / attempted}
    for command, times in _times_by_command(timed).items():
        details[f"{command}_s_p50"] = statistics.median(times)
        q = tail_percentile(len(times))
        if q is not None:
            details[f"{command}_s_{percentile_name(q)}"] = percentile(times, q)
    details.update(wl.work(timed))

    if trace:
        values = layer_metrics(tracer.spans, tracer.counts, traced_wall,
                               sum(r.seconds for r in timed))
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in LAYER_METRICS}
    else:
        ok = [r for label, r in labelled[1:wl.min_rounds + 1] if label not in failed_rounds]
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "round_s_p50": statistics.median(r.seconds for r in timed),
            "best_val_accuracy": max(wl.accuracy(r) for r in ok) if ok else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "correct": failed == 0 and not any(checks.values()),
            "attempted": attempted, "failed": failed, "checks": checks,
            "details": details, "metrics": metrics,
            "round_seconds": [r.seconds for r in timed], "setup_seconds": setup_times}


def _print_result(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']:g}  trace {result['trace']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for check, problems in result["checks"].items():
        print(f"check  {check:<40} {'ok' if not problems else 'FAILED'}")
        for p in problems[:5]:
            print(f"         {p}")
    for name, value in result["details"].items():
        print(f"detail {name:<40} {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"metric {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def _run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    summary, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, res in summary:
        print(f"{name:<11} correct={res['correct']} failed={res['failed']}/{res['attempted']}  "
              + "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                          for k, v in res["metrics"].items()))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    if not (SRC / "promptsearch" / "__init__.py").is_file():
        print(f"error: no promptsearch sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    ticks_before = _cpu_ticks()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import promptsearch.cli  # the start-up cost every shell user of the CLI pays

    import_s = time.perf_counter() - start
    if not Path(promptsearch.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: promptsearch imported from {promptsearch.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():  # a previous run with the same arguments
        shutil.rmtree(work)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s, work)
    result["env"] = _environment(ticks_before, _cpu_ticks())
    (work / "result.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
