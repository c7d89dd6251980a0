"""Time one in-process chain and show, by quarter, how often its prompt repeats.

    python tools/chain_profile.py [--mode supervised|unsupervised] [--steps N]
                                  [--eta ETA]

Runs one chain of the ``src/`` next to this script, in this process, with
BLAS at one thread: ``reference:22``, the ``synthetic-2label`` task,
``synthetic_dataset(200, seed=100)`` (six-word inputs), the adaptive
optimizer, beta 1 -> 1e-4 and the energies' default weights, as ``tune``
runs it, at seed 3, B=16 and M=10.  The defaults are the CLI's 5000 steps
and eta 0.3.

It prints the chain's wall time and ms per step, then one line per quarter
of the chain (``quarter Q steps FIRST-LAST same S held H``) with two shares
of that quarter's steps:

- ``same``: the steps whose token ids equal the step before's (the initial
  prompt's for step 0), i.e. whose update moved no prompt row to another
  token;
- ``held``: the steps that ran no stacked forward, i.e. whose every example
  the chain memo held (only supervised chains have a memo).

Stacked forwards are counted by wrapping ``TinyCausalLM.forward`` and
``promptsearch.sampler.energy_and_grad`` for the run; both are restored
afterwards.  The counting costs a Python call per pass, inside the timed
run.  Exits 0, 1 when the chain faults, and 2 on a bad flag or value.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
SEED, BATCH_SIZE, PROMPT_LENGTH = 3, 16, 10


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chain_profile.py", allow_abbrev=False,
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("supervised", "unsupervised"), default="supervised")
    parser.add_argument("--steps", type=int, default=5000,
                        help="chain steps, at least one per quarter")
    parser.add_argument("--eta", type=float, default=0.3)
    return parser


def profile(cfg) -> int:
    """Run the chain ``cfg`` describes and print its profile; returns the exit code."""
    from promptsearch import sampler
    from promptsearch.model import TinyCausalLM, load_adapter
    from promptsearch.synthetic import synthetic_dataset, synthetic_task

    model = load_adapter("reference:22")
    stacked = [0]       # stacked forwards so far
    per_step = []       # stacked forwards of each energy evaluation
    forward, energy_and_grad = TinyCausalLM.forward, sampler.energy_and_grad

    def counting_forward(self, X, *args, **kwargs):
        stacked[0] += getattr(X, "ndim", 2) == 3
        return forward(self, X, *args, **kwargs)

    def counting_energy_and_grad(*args, **kwargs):
        before = stacked[0]
        try:
            return energy_and_grad(*args, **kwargs)
        finally:
            per_step.append(stacked[0] - before)

    TinyCausalLM.forward = counting_forward
    sampler.energy_and_grad = counting_energy_and_grad
    try:
        start = time.perf_counter()
        record = sampler.run_chain(synthetic_task(), model, cfg,
                                   synthetic_dataset(200, seed=100))
        wall = time.perf_counter() - start
    finally:
        TinyCausalLM.forward = forward
        sampler.energy_and_grad = energy_and_grad

    n = cfg.steps
    print(f"{cfg.energy.mode} chain on reference:22: {n} steps, eta {cfg.eta}, "
          f"seed {cfg.seed}, B={cfg.batch_size}, M={cfg.prompt_length}")
    if record.fault is not None:
        print(f"fault after {len(record.per_step)} steps: {record.fault}", file=sys.stderr)
        return 1
    print(f"{wall:.2f} s, {1000 * wall / n:.2f} ms/step")
    ids = [(model.neutral_token_id,) * cfg.prompt_length, *(s.token_ids for s in record.per_step)]
    for q in range(4):
        steps = range(q * n // 4, (q + 1) * n // 4)
        same = sum(ids[i + 1] == ids[i] for i in steps) / len(steps)
        held = sum(per_step[i] == 0 for i in steps) / len(steps)
        print(f"quarter {q + 1} steps {steps[0]}-{steps[-1]} same {same:.3f} held {held:.3f}")
    return 0


def main(argv: list[str]) -> int:
    """Parse ``argv``, run the chain and print its profile; returns the exit code."""
    from promptsearch.energies import EnergyConfig
    from promptsearch.errors import ConfigurationError
    from promptsearch.sampler import NoiseSchedule, SamplerConfig

    parser = _parser()
    args = parser.parse_args(argv)
    if args.steps < 4:
        parser.error(f"--steps must be at least 4, one per quarter, got {args.steps}")
    energy = (EnergyConfig.supervised() if args.mode == "supervised"
              else EnergyConfig.unsupervised())
    try:
        cfg = SamplerConfig(eta=args.eta, schedule=NoiseSchedule(1.0, 1e-4, args.steps),
                            steps=args.steps, batch_size=BATCH_SIZE, seed=SEED,
                            energy=energy, prompt_length=PROMPT_LENGTH)
    except ConfigurationError as exc:
        parser.error(str(exc))
    return profile(cfg)


if __name__ == "__main__":
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]
    import run  # the benchmark's BLAS thread variables, set before numpy loads
    os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))
    sys.exit(main(sys.argv[1:]))
