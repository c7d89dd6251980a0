"""List the statements of the ``promptsearch`` package that no benchmark workload reaches.

    python tools/bench_traffic.py

Sets up each perfbench workload (``tune-sup``, ``tune-unsup``, ``score``, at
workload seed 1 and the benchmark's own input sizes) and runs its round 0,
all in this process, against the ``src/`` and ``perfbench/`` next to this
script and under the line tracer of ``tools/unreached.py``.  Then it prints,
as that tool does, each statement inside a function body of the package
that no workload ran, as ``<path>:<line>: <text of its first line>``, in file
and line order, and then their number.  Module-level code runs when the
package is imported, before tracing starts, and is never listed.

Works in a temporary directory that is removed afterwards.  Exits 0, or 1
when a round's outputs fail the workload's checks (the list would then say
nothing about the benchmark).
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune-sup", "tune-unsup", "score")
SEED = 1


def _unreached():
    spec = importlib.util.spec_from_file_location("unreached", _ROOT / "tools" / "unreached.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str], sizes: dict | None = None) -> int:
    """List what round 0 of every workload leaves unreached; ``sizes``, a
    dict of the fields of perfbench's ``Sizes``, overrides the benchmark's
    input sizes (tests pass tiny ones).  Returns the exit code."""
    if argv:
        print("usage: python tools/bench_traffic.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]
    import promptsearch
    import workloads

    unreached = _unreached()
    package = Path(promptsearch.__file__).parent

    def rounds() -> list[str]:
        problems = []
        with tempfile.TemporaryDirectory() as tmp:
            for name in WORKLOADS:
                wl = workloads.make_workload(
                    name, SEED, None if sizes is None else workloads.Sizes(**sizes))
                wl.prepare(Path(tmp) / name / "inputs")
                rnd = wl.run_round(0, Path(tmp) / name / "round")
                problems += [f"{name}: {problem}" for problem in wl.problems(rnd)]
        return problems

    problems, ran = unreached.run_traced(package, rounds)
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 1
    unreached.print_unreached(package, ran)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
