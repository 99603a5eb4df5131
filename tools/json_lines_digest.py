"""Digest the results of every benchmark operation, for identity checks.

    python3 tools/json_lines_digest.py [--seeds 1 2 3]

Run from the root of a source checkout.  For each workload of
`perfbench/gen.py` and each seed, this writes the workload's input files
into a temporary directory and runs every operation through
`lbfrechet.cli.main(["--output", "json-lines", ...])` in-process with
`perfbench/run.py`'s `run_op`, in the order one benchmark pass runs them.
Each `decide --witness` operation also writes its traced regions with
`--dump-regions` into a directory of its own.  The directory's path is
replaced by a placeholder in the output.  It prints one sha256 per workload
and seed over each operation's (exit code, stdout, stderr) and, after a
witness operation, its dump files' sorted names and contents; then one
total over those lines.  Two checkouts that print the same digests gave
byte-identical results and region dumps on every operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
import run  # noqa: E402
from lbfrechet import cli  # noqa: E402

PLACEHOLDER = "<dir>"


def digest(workload: str, seed: int) -> tuple:
    """(sha256 hex digest, operation count) for one workload and seed."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        ops = gen.build(workload, seed, tmp)
        for k, op in enumerate(ops):
            dump = os.path.join(tmp, f"dump{k:04d}") if op.kind == "witness" else None
            if dump:
                op = dataclasses.replace(op, argv=op.argv + ["--dump-regions", dump])
            _, rc, out, err = run.run_op(cli.main, op)
            records = [f"{rc}\0{out}\0{err}\0"]
            for name in sorted(os.listdir(dump)) if dump else ():
                with open(os.path.join(dump, name), encoding="utf-8") as fh:
                    records.append(f"{name}\0{fh.read()}\0")
            for record in records:
                h.update(record.replace(tmp, PLACEHOLDER).encode("utf-8"))
    return h.hexdigest(), len(ops)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = p.parse_args(argv)
    lines, count = [], 0
    for workload in gen.WORKLOADS:
        for seed in args.seeds:
            hexdigest, n = digest(workload, seed)
            count += n
            lines.append(f"{hexdigest}  {workload} seed {seed} ({n} operations)")
            print(lines[-1], flush=True)
    total = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    print(f"{total}  total ({count} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
