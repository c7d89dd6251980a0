"""Compare two checkouts on the repository's benchmark, in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE

The workloads, the end-to-end metrics with their direction and bound, the
command and the run length come from the ``BENCHMARK.json`` at the root of
the repository holding this script.  For each workload, ten pairs of runs of
``<command> --workload W --seed 1 --seconds <run_seconds> --trace 0`` are
made, each with its checkout as the working directory; the parent runs first
in odd pairs and second in even ones.  A run's result is the JSON object on
the last line of its stdout, and its ``env`` line is kept.  A run that exits
non-zero, ends without a JSON line, or reports ``correct: false`` is failed.

Each workload's ``BENCH_<workload>.json``, written to the current directory,
holds every run's metrics; per side, each metric's median, quartiles and
spread, (q3 - q1) / median from ``statistics.quantiles(n=4)``; the pairs the
change won (ties count for neither); and one verdict per metric, which is
also printed with the pairs won, both medians and the change's relative
difference from the parent's median:

- ``worse``: the change's median is worse than the parent's by more than
  the bound times the parent's median;
- ``unresolved``: otherwise, the parent's spread exceeds the bound, unless
  every run of the change beats every run of the parent;
- ``better``: otherwise, the change won at least 9 of the 10 pairs and its
  median beats the parent's by more than the parent's interquartile range;
- ``unchanged``: otherwise.

Exits 1 when any run failed (after writing every file), 2 on a usage error.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEED = 1
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _run(command: list[str], checkout: Path, names: list[str]) -> dict:
    """One benchmark run in ``checkout``: its exit code, whether it failed,
    its ``env`` line and the values of the metrics ``names``."""
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    run = {"exit_code": proc.returncode, "failed": True, "env": None, "metrics": {}}
    try:
        run["env"] = next((json.loads(line[4:]) for line in lines
                           if line.startswith("env ")), None)
        result = json.loads(lines[-1])
        run["metrics"] = {name: result["metrics"][name]["value"] for name in names}
        run["failed"] = proc.returncode != 0 or result["correct"] is not True
    except (IndexError, KeyError, TypeError, ValueError):
        pass
    return run


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _compare(metric: dict, runs: list[dict]) -> dict:
    """The metric's summary per side, the pairs the change won and its verdict."""
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    by_pair = {}
    for run in runs:
        if not run["failed"]:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
    sides = {side: [values[side] for values in by_pair.values() if side in values]
             for side in ("parent", "change")}
    won = [pair for pair, values in sorted(by_pair.items()) if len(values) == 2
           and sign * (values["parent"] - values["change"]) > 0]
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "pairs_won": won, "verdict": "unresolved"}
    if min(map(len, sides.values())) < 2:  # too few runs for quartiles
        return out
    parent, change = _summary(sides["parent"]), _summary(sides["change"])
    out.update(parent=parent, change=change)
    gain = sign * (parent["median"] - change["median"])
    beats_every_run = all(sign * (p - c) > 0 for p in sides["parent"]
                          for c in sides["change"])
    if -gain > metric["bound"] * parent["median"]:
        out["verdict"] = "worse"
    elif parent["spread"] > metric["bound"] and not beats_every_run:
        out["verdict"] = "unresolved"
    elif len(won) >= 9 and gain > parent["q3"] - parent["q1"]:
        out["verdict"] = "better"
    else:
        out["verdict"] = "unchanged"
    return out


def _medians(result: dict) -> str:
    """``; median P -> C (+x.x%)``: the parent's and the change's medians and
    the relative change, or nothing when a side has too few runs."""
    if "change" not in result:
        return ""
    parent, change = result["parent"]["median"], result["change"]["median"]
    relative = f" ({(change - parent) / parent:+.1%})" if parent else ""
    return f"; median {parent:.6g} -> {change:.6g}{relative}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/bench_pairs.py PARENT CHANGE", file=sys.stderr)
        return 2
    checkouts = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [metric["name"] for metric in bench["end_to_end"]]
    any_failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        command = [*bench["command"], "--workload", workload, "--seed", str(SEED),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        runs = []
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for position, side in enumerate(order, 1):
                run = {"pair": pair, "side": side, "position": position,
                       **_run(command, checkouts[side], names)}
                runs.append(run)
                any_failed |= run["failed"]
                shown = " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
                if run["failed"]:
                    shown = f"FAILED, exit code {run['exit_code']}"
                print(f"{workload} pair {pair} {side}: {shown}", flush=True)
        doc = {"workload": workload, "command": command, "runs": runs,
               "metrics": {m["name"]: _compare(m, runs) for m in bench["end_to_end"]}}
        Path(f"BENCH_{workload}.json").write_text(json.dumps(doc, indent=2) + "\n",
                                                  encoding="utf-8")
        for name, result in doc["metrics"].items():
            print(f"{workload} {name}: {result['verdict']}, change won "
                  f"{len(result['pairs_won'])} of {PAIRS} pairs{_medians(result)}",
                  flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
