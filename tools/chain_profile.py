"""Time one in-process chain and show, by quarter, how often its prompt repeats.

    python tools/chain_profile.py [--mode supervised|unsupervised] [--steps N]
                                  [--eta ETA] [--beta-end B] [--examples N]
                                  [--task synthetic-2label|agnews]

Runs one chain of the ``src/`` next to this script, in this process, with
BLAS at one thread: ``reference:22``, the ``synthetic-2label`` task,
``synthetic_dataset(200, seed=100)`` (six-word inputs), the adaptive
optimizer, beta 1 -> ``--beta-end`` and the energies' default weights, as
``tune`` runs it, at seed 3, B=16 and M=10.  The defaults are the CLI's 5000
steps, eta 0.3 and beta end 1e-4.  ``--beta-end 1`` keeps beta at 1, so the
prompt moves on almost every step and almost no step is held: the chain's
noisy early phase, all of it.  ``--examples`` sets the dataset's size;
``--task agnews`` runs the built-in four-label task on the same inputs,
labelled in turn.

It prints the chain's wall time and ms per step, then one line per quarter
of the chain (``quarter Q steps FIRST-LAST same S held H ms T``) with two
shares of that quarter's steps and its ms per step:

- ``same``: the steps whose token ids equal the step before's (the initial
  prompt's for step 0), i.e. whose update moved no prompt row to another
  token;
- ``held``: the steps that ran no stacked forward, i.e. whose every example
  the chain memo held (in either mode).

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
    parser.add_argument("--beta-end", type=float, default=1e-4,
                        help="the noise schedule's last beta; it starts at 1")
    parser.add_argument("--examples", type=int, default=200,
                        help="dataset size, at least one")
    parser.add_argument("--task", choices=("synthetic-2label", "agnews"),
                        default="synthetic-2label")
    return parser


def profile(cfg, examples: int = 200, task_id: str = "synthetic-2label") -> int:
    """Run the chain ``cfg`` describes and print its profile; returns the exit code."""
    from promptsearch import sampler
    from promptsearch.model import TinyCausalLM, load_adapter
    from promptsearch.synthetic import synthetic_dataset, synthetic_task
    from promptsearch.tasks import Example, builtin_tasks

    model = load_adapter("reference:22")
    task = next((t for t in builtin_tasks() if t.id == task_id), synthetic_task())
    data = [Example(ex.text, task.labels[i % len(task.labels)])
            for i, ex in enumerate(synthetic_dataset(examples, seed=100))]
    stacked = [0]       # stacked forwards so far
    per_step = []       # stacked forwards of each energy evaluation
    starts = []         # when each energy evaluation began
    forward, energy_and_grad = TinyCausalLM.forward, sampler.energy_and_grad

    def counting_forward(self, X, *args, **kwargs):
        stacked[0] += getattr(X, "ndim", 2) == 3
        return forward(self, X, *args, **kwargs)

    def counting_energy_and_grad(*args, **kwargs):
        before = stacked[0]
        starts.append(time.perf_counter())
        try:
            return energy_and_grad(*args, **kwargs)
        finally:
            per_step.append(stacked[0] - before)

    TinyCausalLM.forward = counting_forward
    sampler.energy_and_grad = counting_energy_and_grad
    try:
        start = time.perf_counter()
        record = sampler.run_chain(task, model, cfg, data)
        wall = time.perf_counter() - start
    finally:
        TinyCausalLM.forward = forward
        sampler.energy_and_grad = energy_and_grad
    starts.append(start + wall)

    n = cfg.steps
    print(f"{cfg.energy.mode} chain on reference:22, {task.id}, {len(data)} examples: "
          f"{n} steps, eta {cfg.eta}, beta 1 -> {cfg.schedule.beta_end:g}, "
          f"seed {cfg.seed}, B={cfg.batch_size}, "
          f"M={cfg.prompt_length}")
    if record.fault is not None:
        print(f"fault after {len(record.per_step)} steps: {record.fault}", file=sys.stderr)
        return 1
    print(f"{wall:.2f} s, {1000 * wall / n:.2f} ms/step")
    ids = [(model.neutral_token_id,) * cfg.prompt_length, *(s.token_ids for s in record.per_step)]
    for q in range(4):
        steps = range(q * n // 4, (q + 1) * n // 4)
        same = sum(ids[i + 1] == ids[i] for i in steps) / len(steps)
        held = sum(per_step[i] == 0 for i in steps) / len(steps)
        ms = 1000 * (starts[steps[-1] + 1] - starts[steps[0]]) / len(steps)
        print(f"quarter {q + 1} steps {steps[0]}-{steps[-1]} same {same:.3f} held {held:.3f} "
              f"ms {ms:.2f}")
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
    if args.examples < 1:
        parser.error(f"--examples must be at least 1, got {args.examples}")
    energy = (EnergyConfig.supervised() if args.mode == "supervised"
              else EnergyConfig.unsupervised())
    try:
        cfg = SamplerConfig(eta=args.eta,
                            schedule=NoiseSchedule(1.0, args.beta_end, args.steps),
                            steps=args.steps, batch_size=BATCH_SIZE, seed=SEED,
                            energy=energy, prompt_length=PROMPT_LENGTH)
    except ConfigurationError as exc:
        parser.error(str(exc))
    return profile(cfg, args.examples, args.task)


if __name__ == "__main__":
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]
    import run  # the benchmark's BLAS thread variables, set before numpy loads
    os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))
    sys.exit(main(sys.argv[1:]))
