"""Time two checkouts against each other in one process, operation by operation.

    python3 tools/ab_compare.py PARENT CHANGE --workload exhaustive --seeds 1 2 3 --rounds 12

Run from the root of a source checkout: its `perfbench/gen.py` writes the
inputs and its `perfbench/run.py` supplies the reference loop and the way
one operation is run and rescaled.  The `src/lbfrechet` of PARENT and of
CHANGE are copied under a temporary directory as two packages of their
own, so both load into this process.  For each seed the inputs are written
once; each round then runs every operation on both packages back to back,
the side that goes first alternating from one operation to the next.  Each
run is timed between two reference loops and rescaled by their mean, as
`wall_s` is.  Drift of the machine's speed over a session then falls on
both sides alike, where two benchmark runs taken minutes apart can differ
by more than a change's gain.

It prints, per operation kind and in total, the sum over operations of the
median rescaled seconds of each side and the change between them; per
seed, the rounds whose total CHANGE won, and whether both sides gave the
same (exit code, stdout, stderr) on every run.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
import run  # noqa: E402

SIDES = ("lbf_parent", "lbf_change")


def load(checkout: str, name: str, tmp: str):
    """cli.main of the checkout's src/lbfrechet, imported as package name."""
    pkg = os.path.join(checkout, "src", "lbfrechet")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise SystemExit(f"ab_compare: {pkg} has no cli.py")
    shutil.copytree(pkg, os.path.join(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli").main


def measure(mains, ops, rounds: int) -> tuple:
    """Per side: per operation its rescaled seconds in each round, and the
    (exit code, stdout, stderr) of every run in order."""
    times = [[[] for _ in ops] for _ in mains]
    outcomes = [[] for _ in mains]
    for rnd in range(rounds):
        for k, op in enumerate(ops):
            for side in (0, 1) if (rnd + k) % 2 == 0 else (1, 0):
                before = run.reference_seconds()
                dt, rc, out, err = run.run_op(mains[side], op)
                ref = (before + run.reference_seconds()) / 2
                times[side][k].append(run.normalised(dt, ref))
                outcomes[side].append((rc, out, err))
    return times, outcomes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="root of the first checkout")
    p.add_argument("change", help="root of the second checkout")
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--rounds", type=int, default=12)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    kinds: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mains = [load(path, name, tmp) for path, name in zip((args.parent, args.change), SIDES)]
        for seed in args.seeds:
            ops = gen.build(args.workload, seed, os.path.join(tmp, f"seed{seed}"))
            times, outcomes = measure(mains, ops, args.rounds)
            for k, op in enumerate(ops):
                per_kind = kinds.setdefault(op.kind, [0.0, 0.0])
                for side in (0, 1):
                    per_kind[side] += statistics.median(times[side][k])
            totals = [[sum(ts[rnd] for ts in times[side]) for rnd in range(args.rounds)] for side in (0, 1)]
            won = sum(b < a for a, b in zip(*totals))
            differ = sum(x != y for x, y in zip(*outcomes))
            same = "identical" if not differ else f"different on {differ} runs"
            print(f"seed {seed}: {len(ops)} operations x {args.rounds} rounds, "
                  f"change won {won} of {args.rounds} rounds, outputs {same}", flush=True)
    print(f"{'kind':<14}{'parent_s':>12}{'change_s':>12}{'change':>9}")
    for kind, (a, b) in sorted(kinds.items()) + [("total", [sum(col) for col in zip(*kinds.values())])]:
        print(f"{kind:<14}{a:>12.6f}{b:>12.6f}{(b / a - 1) * 100:>+8.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
