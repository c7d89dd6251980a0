"""Print the benchmark fingerprints of a checkout, one line per workload and seed.

    python tools/fingerprints.py CHECKOUT

For each perfbench workload (``tune-sup``, ``tune-unsup``, ``score``) and
seed (3 and 4), the checkout's own ``perfbench/workloads.py`` prepares the
inputs and runs round 0 against the checkout's own ``src/``.  The line is
``<workload> seed<seed> <sha256 of workload.fingerprint(round)>``: the
chain record's bytes for a ``tune`` workload, ``eval``'s table plus the
``analyze`` report for ``score``.  Equal lines for two checkouts mean
byte-identical outputs.  Everything runs in one fresh Python process with
BLAS at one thread, in a temporary directory that is removed afterwards;
a round whose outputs fail the workload's checks exits 1 instead.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tune-sup", "tune-unsup", "score")
SEEDS = (3, 4)

# Run in the child process: argv is the checkout, then the sizes as JSON
# (null for the benchmark's own sizes).
_CHILD = """
import hashlib, json, os, sys, tempfile
from pathlib import Path

checkout, sizes = Path(sys.argv[1]), json.loads(sys.argv[2])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
import run  # the benchmark's BLAS thread variables, set before numpy loads
os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))
import workloads

with tempfile.TemporaryDirectory() as tmp:
    for name in %r:
        for seed in %r:
            work = Path(tmp) / f"{name}-seed{seed}"
            wl = workloads.make_workload(
                name, seed, None if sizes is None else workloads.Sizes(**sizes))
            wl.prepare(work / "inputs")
            rnd = wl.run_round(0, work / "round")
            problems = wl.problems(rnd)
            if problems:
                sys.exit(f"{name} seed{seed}: " + "; ".join(problems))
            digest = hashlib.sha256(wl.fingerprint(rnd)).hexdigest()
            print(f"{name} seed{seed} {digest}", flush=True)
""" % (WORKLOADS, SEEDS)


def main(argv: list[str], sizes: dict | None = None) -> int:
    """Print the checkout's fingerprint lines; ``sizes``, a dict of the
    fields of perfbench's ``Sizes``, overrides the benchmark's input sizes
    (tests pass tiny ones).  Returns the child process's exit code."""
    if len(argv) != 1:
        print("usage: python tools/fingerprints.py CHECKOUT", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    if not (checkout / "perfbench" / "workloads.py").is_file():
        print(f"error: no perfbench/workloads.py under {checkout}", file=sys.stderr)
        return 2
    child = subprocess.run([sys.executable, "-c", _CHILD, str(checkout), json.dumps(sizes)],
                           capture_output=True, text=True, check=False)
    print(child.stdout, end="")
    print(child.stderr, end="", file=sys.stderr)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
