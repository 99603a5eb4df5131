"""List the statements of the library that no benchmark operation runs.

    python3 tools/unrun_lines.py [--seeds 1 2 3] [--tests]

Run from the root of a source checkout.  A sys.settrace line tracer is
installed before `lbfrechet` is imported, so module-level statements count.
Then every operation of the workloads of `perfbench/gen.py` runs for each
seed through `lbfrechet.cli.main` in-process, as `tools/json_lines_digest.py`
runs them.  With --tests, Tier-1 (`tests` and `perfbench`) also runs
in-process under pytest, without test_criterion_05_quadratic_scaling, whose
2000x2000 decision would take far too long traced.  For each file of
`src/lbfrechet` it then prints the statements that never ran, one line each
as `path:line: source`, docstrings excluded.  A statement counts as run when
a line event fell on one of its own lines: a simple statement's lines, or a
compound statement's header up to its first body statement, decorators
included.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lbfrechet")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), os.path.dirname(__file__)]

hits: dict = {}


def _tracer(frame, event, arg):
    # the global tracer: follow lines only in the library's own frames
    lines = hits.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _statements(tree: ast.Module):
    """(first line, own lines) of every statement but docstrings."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
        ):
            docstrings.add(body[0])
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield first, range(first, max(first, last) + 1)


def unrun(path: str) -> list:
    """The (line, source) of each statement of path that never ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines, ran = source.splitlines(), hits[path]
    return sorted(
        (first, lines[first - 1].strip())
        for first, own in _statements(ast.parse(source))
        if not ran.intersection(own)
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--tests", action="store_true", help="also run Tier-1 in-process")
    args = p.parse_args(argv)
    files = sorted(os.path.join(SRC, f) for f in os.listdir(SRC) if f.endswith(".py"))
    hits.update((f, set()) for f in files)
    sys.settrace(_tracer)
    try:
        import gen
        import json_lines_digest

        for workload in gen.WORKLOADS:
            for seed in args.seeds:
                json_lines_digest.digest(workload, seed)
        if args.tests:
            import pytest

            # pytest reports on stderr, so stdout holds only the list
            with contextlib.redirect_stdout(sys.stderr):
                rc = pytest.main([
                    "-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                    "--deselect", "tests/test_acceptance.py::test_criterion_05_quadratic_scaling",
                    os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench"),
                ])
            if rc != 0:
                print(f"unrun_lines: Tier-1 exited {rc}", file=sys.stderr)
    finally:
        sys.settrace(None)
    for path in files:
        for line, text in unrun(path):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
