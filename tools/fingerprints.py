"""Print the benchmark fingerprints of a checkout, one line per workload and seed.

    python tools/fingerprints.py CHECKOUT

For each perfbench workload (``tune-sup``, ``tune-unsup``, ``score``) and
seed (3 and 4), the checkout's own ``perfbench/workloads.py`` prepares the
inputs and runs round 0 against the checkout's own ``src/``.  The line is
``<workload> seed<seed> <sha256 of workload.fingerprint(round)>``: the
chain record's bytes for a ``tune`` workload, ``eval``'s table plus the
``analyze`` report for ``score``.

Every perfbench ``tune`` workload trains on six-word inputs, so each of
its batches is one length group.  Two more lines, ``mixed-sup seed1`` and
``mixed-unsup seed1``, hash the record of a supervised and an unsupervised
chain (chain seed 1, at the ``tune`` workloads' config) on inputs of 0 to 5
words drawn from ``synthetic.POOL_A``/``POOL_B``, whose batches span several
length groups; the checkout's own ``promptsearch.cli.main`` runs them.

Equal lines for two checkouts mean byte-identical outputs.  Everything runs
in one fresh Python process with BLAS at one thread, in a temporary
directory that is removed afterwards; a round whose outputs fail the
workload's checks, or a mixed chain that does not exit 0, exits 1 instead.
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
import contextlib, hashlib, io, json, os, sys, tempfile
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

    import numpy as np
    from promptsearch.cli import main

    s = workloads.Sizes(**(sizes or {}))
    data = Path(tmp) / "mixed.jsonl"
    workloads._write_jsonl(data, workloads._mixed_length_examples(
        s.train, np.random.default_rng(0), 0, 5))
    for name, mode, weight in (("mixed-sup", "supervised", "--lambda-fluency"),
                               ("mixed-unsup", "unsupervised", "--lambda-domain")):
        out = Path(tmp) / name
        argv = ["tune", "--task", "synthetic-2label", "--model", workloads.MODEL,
                "--data", str(data), "--out-dir", str(out), "--mode", mode,
                "--m", str(s.prompt_len), "--steps", str(s.steps),
                "--batch-size", str(s.batch), "--eta", "0.3", "--optimizer", "adaptive",
                "--seeds", "1,", weight, "0.003"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            sys.exit(f"{name} seed1: tune exited {code}")
        digest = hashlib.sha256((out / "chain_000_seed1.json").read_bytes()).hexdigest()
        print(f"{name} seed1 {digest}", flush=True)
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
