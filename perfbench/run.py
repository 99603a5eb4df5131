"""lbfrechet benchmark.

    python3 perfbench/run.py --workload lb-decide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  A single process and a closed
loop: one client sends each `lbf` operation through
`lbfrechet.cli.main([...])` with `--output json-lines`, in-process, only
after the previous one returned.  No threads, no worker processes.

Set-up writes the seed's input files (see gen.py).  The run then repeats
passes over the workload's fixed batch of operations until --seconds have
passed, checks every answer (checks.py) outside the timed passes, and
prints a human summary followed, on the last line, by one JSON object:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones.  A traced run spends half its time on untraced passes,
then runs one pass with spans only (for self times and the tracing
overhead) and one pass that also counts the per-cell kernels and samples
their arguments, which are replayed afterwards to time each kernel.

The timed end-to-end metrics (setup_s, wall_s) are seconds rescaled by a
fixed reference loop timed around every operation (see `normalised`): on
a shared machine the plain seconds of one run can be twice those of
another.  The summary lines print the plain seconds next to them.

Exit code 2, without a result line, when the checkout lacks the program
(src/lbfrechet) or its test oracles (tests/oracles.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "_out")

SETUP_REPEATS = 5
REFERENCE_ITERATIONS = 3000
REFERENCE_NOMINAL_S = 0.001
# Nearest-rank percentiles tried for the tail, highest first; the tail is
# the highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Per-operation kinds whose total time per pass the summary reports.
KIND_TOTALS = {
    "lb-decide": (),
    "lb-witness-value": (("witness_s", ("witness",)), ("value_s", ("value",))),
    "exhaustive": (
        ("verify_s", ("verify-ub", "verify-weak")),
        ("oracle_s", ("oracle",)),
        ("weak_min_s", ("weak-min",)),
    ),
}


def tail(samples) -> tuple:
    """(percentile, value, samples beyond) for the highest ladder
    percentile with enough samples beyond it; the maximum when the batch
    is too small for any."""
    xs = sorted(samples)
    k = len(xs)
    for q in TAIL_LADDER:
        idx = math.ceil(q / 100 * k) - 1
        if k - 1 - idx >= TAIL_BEYOND:
            return q, xs[idx], k - 1 - idx
    return 100.0, xs[-1], 0


# ---------------------------------------------------------------------------
# running operations


def run_op(main, op):
    """One closed-loop operation: (seconds, exit code or None, stdout)."""
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--output", "json-lines"] + op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def normalised(seconds: float, reference: float) -> float:
    """Seconds rescaled to a machine on which the reference loop takes
    REFERENCE_NOMINAL_S.  On a shared machine every instruction can run up
    to twice slower for seconds to minutes at a time (CPU time slows with
    wall time, so this is contention, not descheduling); the ratio to a
    loop timed alongside drifts far less than plain seconds."""
    return seconds / reference * REFERENCE_NOMINAL_S


def reference_seconds() -> float:
    """Time one run of a fixed pure-Python loop of tuple building and
    integer comparisons, about a millisecond; it never touches the program,
    so a change to the program cannot move it."""
    t0 = time.perf_counter()
    acc = 0
    for x in range(REFERENCE_ITERATIONS):
        p = (x, x + 1, x - 3, x * 2, -x, x % 7)
        if p[0] <= p[1] and p[2] < p[3]:
            acc += p[4] if p[4] > p[5] else p[5]
    return time.perf_counter() - t0


def run_pass(main, ops, tracer=None):
    """(wall seconds, per-op seconds, per-op reference seconds, per-op
    (rc, stdout, stderr)).  Reference loops bracket every operation; each
    operation gets the mean of its two, and the wall leaves them out."""
    times = []
    refs = []
    outcomes = []
    before = reference_seconds()
    in_refs = 0.0
    t0 = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
            idx = tracer.open("cli.main")
            dt, rc, out, err = run_op(main, op)
            tracer.close(idx)
        else:
            dt, rc, out, err = run_op(main, op)
        after = reference_seconds()
        in_refs += after
        refs.append((before + after) / 2)
        before = after
        times.append(dt)
        outcomes.append((rc, out, err))
    return time.perf_counter() - t0 - in_refs, times, refs, outcomes


def count_failures(ops, passes, check) -> tuple:
    """(attempted, failed, reasons).  Every execution of an operation is
    an attempt; it fails when it raised or exited non-zero, when its
    output differs from the first pass's, or when that output is wrong."""
    attempted = failed = 0
    reasons = []
    for op_id, op in enumerate(ops):
        first = passes[0][op_id]
        verdict = None
        if first[0] != 0:
            verdict = f"exit {first[0]}: {first[2].strip()[-200:]}"
        else:
            try:
                verdict = check(op, json.loads(first[1].strip().splitlines()[-1]))
            except (json.JSONDecodeError, IndexError) as exc:
                verdict = f"unparsable output: {exc}"
        for outcomes in passes:
            attempted += 1
            rc, out, _ = outcomes[op_id]
            bad = verdict or (None if (rc, out) == first[:2] else "output changed between passes")
            if bad:
                failed += 1
                reasons.append(f"{op.kind} {' '.join(op.argv)}: {bad}")
    return attempted, failed, reasons


# ---------------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    """Fresh-interpreter import time of the CLI, as the child measures it."""
    code = "import time; t = time.perf_counter(); import lbfrechet.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def setup(gen, workload: str, seed: int) -> tuple:
    """(setup seconds rescaled, unscaled, operations): a fresh import plus
    generating and writing the inputs, repeated SETUP_REPEATS times, each
    repetition bracketed by reference loops; medians."""
    workdir = os.path.join(WORK, workload)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        seconds = import_seconds()
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        ops = gen.build(workload, seed, workdir)
        seconds += time.perf_counter() - t0
        ref = (before + reference_seconds()) / 2
        scaled.append(normalised(seconds, ref))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw), ops


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, ops, walls, pass_times, pass_refs, setup_s, rss_mb) -> tuple:
    """(metrics, summary lines) from the untraced passes.

    wall_s is rescaled to the reference loop (see normalised): each
    operation's time is divided by the mean of the reference loops timed
    just before and after it, the median over the passes is taken, and the
    batch is summed.  The summary also gives plain seconds.
    """
    per_op_s = [statistics.median(ts) for ts in zip(*pass_times)]
    per_op = [
        statistics.median(normalised(t, r) for t, r in zip(ts, rs))
        for ts, rs in zip(zip(*pass_times), zip(*pass_refs))
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"{len(walls)} passes of {len(ops)} operations, walls " + " ".join(f"{w:.3f}" for w in walls) + " s",
        f"reference loop median {statistics.median(r for rs in pass_refs for r in rs) * 1e3:.4f} ms",
        f"wall_s unscaled {sum(per_op_s):.6f} s (sum of per-operation medians)",
    ]
    if workload == "lb-decide":
        q, tail_s, beyond = tail(per_op_s)
        cells = sum(op.cells for op in ops)
        share = sum(op.check["expected"] for op in ops) / len(ops)
        lines += [
            f"decide_p50_s {statistics.median(per_op_s):.6f} s",
            f"decide_tail_s {tail_s:.6f} s (p{q:g} of {len(per_op_s)} samples, {beyond} beyond)",
            f"decide_cells_per_s {cells / sum(per_op_s):.1f} 1/s",
            f"feasible share {share:.3f} of {len(ops)} decisions",
        ]
    for name, kinds in KIND_TOTALS[workload]:
        chosen = [t for op, t in zip(ops, per_op_s) if op.kind in kinds]
        lines.append(f"{name} {sum(chosen):.6f} s ({len(chosen)} operations per pass)")
    return metrics, lines


def scale_bits(u, v, delta) -> int:
    """Bit length of decide_lb's scale factor: the lcm of every input
    denominator, the clip box's included."""
    from fractions import Fraction

    from lbfrechet.lower_bound import clip_box_for

    delta = Fraction(delta)
    box = clip_box_for(u, v, delta)
    dens = [delta.denominator, box.lo.denominator, box.hi.denominator]
    dens += [x.denominator for c in (u, v) for x in c.all_endpoints()]
    return math.lcm(*dens).bit_length()


def per_layer(spans_tracer, count_tracer, replay, traced_wall) -> dict:
    """Per-layer metrics from the spans pass, the counting pass and the
    kernel replay.  Times are plain seconds of the traced pass, except the
    bench.*_wall_s figures, which main adds rescaled like wall_s."""
    from lbfrechet.oracle import EnumerationSpec, enumeration_size

    names, _, parent, start, end = (list(col) for col in zip(*spans_tracer.spans()))
    dur = [e - s for s, e in zip(start, end)]
    own = tracing.self_times(parent, start, end)
    idx = {}
    for i, name in enumerate(names):
        idx.setdefault(name, []).append(i)
    kept = spans_tracer.kept

    def spans_of(name):
        return idx.get(name, [])

    def total(name, values=dur):
        return sum(values[i] for i in spans_of(name))

    def div(a, b):
        return a / b if b else 0.0

    m = {}
    # regions: counts from the counting pass, times from the replay
    mm_calls = mm_empty = 0
    for fn in tracing.KERNELS:
        calls, empties, _ = count_tracer.count(f"regions.{fn}")
        mm_calls += calls
        mm_empty += empties
    m["regions.mm_calls"] = (mm_calls, "count")
    m["regions.mm_empty_ratio"] = (div(mm_empty, mm_calls), "ratio")
    m["regions.normalize_calls"] = (count_tracer.count("regions.normalize_pieces")[0], "count")
    regions_ns = 0.0
    for _, fn, name in tracing.COUNTED:
        ns = replay[name]
        m[f"{tracing.layer_of(name)}.{fn.lstrip('_')}_ns"] = (ns, "ns")
        if tracing.layer_of(name) == "regions":
            regions_ns += ns * count_tracer.count(name)[0]

    # lower_bound
    def cells(i):
        args = kept[i][0]
        return len(args[0]) * len(args[1])

    def traced(i):
        return bool(kept[i][1].get("trace"))

    def parent_name(i):
        return names[parent[i]] if parent[i] >= 0 else ""

    decides = spans_of("lower_bound.decide_lb")
    plain = [i for i in decides if parent_name(i) == "cli.main" and not traced(i)]
    probes = [i for i in decides if parent_name(i) == "lower_bound.compute_lb"]
    bits = sorted(scale_bits(*kept[i][0][:3]) for i in decides)
    cleanup = {fn: count_tracer.count(f"lower_bound.{fn}")[0] for fn in tracing.CLEANUPS}
    m["lower_bound.decide_ns_per_cell"] = (div(sum(dur[i] for i in plain), sum(cells(i) for i in plain)), "ns")
    m["lower_bound.cleanup_calls"] = (sum(cleanup.values()), "count")
    m["lower_bound.cleanup_ns"] = (
        div(sum(replay[f"lower_bound.{fn}"] * c for fn, c in cleanup.items()), sum(cleanup.values())), "ns")
    # both traced passes make the same calls, so the cells are the same
    m["lower_bound.reduce_calls_per_cell"] = (div(cleanup["_reduce"], sum(cells(i) for i in decides)), "ratio")
    m["lower_bound.scale_bits_max"] = (bits[-1] if bits else 0, "bits")
    m["lower_bound.scale_bits_median"] = (statistics.median(bits) if bits else 0, "bits")
    m["lower_bound.traced_decide_s"] = (sum(dur[i] for i in decides if traced(i)) / 1e9, "s")
    m["lower_bound.witness_walk_s"] = (total("lower_bound.extract_witness", own) / 1e9, "s")
    m["lower_bound.bisect_probes"] = (div(len(probes), len(spans_of("lower_bound.compute_lb"))), "count")
    m["lower_bound.probe_ns_per_cell"] = (div(sum(dur[i] for i in probes), sum(cells(i) for i in probes)), "ns")

    # precise
    for fn in ("frechet_decide", "frechet_value", "discrete_frechet", "weak_frechet_1d", "discrete_weak"):
        name = f"precise.{fn}"
        calls = len(spans_of(name))
        m[f"{name}_calls"] = (calls, "count")
        m[f"{name}_us"] = (div(total(name, own), calls) / 1e3, "us")

    # oracle
    oracle_spans = spans_of("oracle.bound_oracle")
    pairs = sum(1 for i, name in enumerate(names)
                if name.startswith("precise.") and parent_name(i) == "oracle.bound_oracle")
    enumerable = 0
    for i in oracle_spans:
        args, kwargs = kept[i]
        spec = args[4] if len(args) > 4 else kwargs.get("spec") or EnumerationSpec()
        enumerable += enumeration_size(args[0], spec) * enumeration_size(args[1], spec)
    m["oracle.pairs_evaluated"] = (pairs, "count")
    m["oracle.pairs_per_s"] = (div(pairs, total("oracle.bound_oracle") / 1e9), "1/s")
    m["oracle.early_stop_ratio"] = (div(pairs, enumerable), "ratio")

    # weak_uncertain
    values = spans_of("weak_uncertain.wfr_min_value")
    cand_lens = [kept[i] for i in spans_of("weak_uncertain.candidate_deltas")]
    ranks = []
    candidate_deltas = spans_tracer.originals["weak_uncertain.candidate_deltas"]
    for i in values:
        args, result = kept[i]
        cands = candidate_deltas(args[0], args[1])
        ranks.append(cands.index(result) / len(cands))
    m["weak_uncertain.decide_calls"] = (div(len(spans_of("weak_uncertain.wfr_min_decide")), len(values)), "count")
    m["weak_uncertain.dp_calls"] = (len(spans_of("weak_uncertain._weak_dp")), "count")
    m["weak_uncertain.dp_ms"] = (total("weak_uncertain._weak_dp") / 1e6, "ms")
    m["weak_uncertain.candidates"] = (div(sum(cand_lens), len(cand_lens)), "count")
    m["weak_uncertain.answer_rank"] = (div(sum(ranks), len(ranks)), "ratio")

    # reductions, model, cli
    m["reductions.build_s"] = (sum(total(n) for n in idx if n.startswith("reductions.build_")) / 1e9, "s")
    m["reductions.verify_self_s"] = (total("reductions.verify_reduction", own) / 1e9, "s")
    m["model.load_s"] = (total("model.load_curve") / 1e9, "s")

    # self time per layer; regions is the replay estimate, taken out of
    # lower_bound, whose span self time contains the kernel calls
    layer_ns = tracing.layer_self_ns(names, parent, start, end)
    layer_ns["lower_bound"] -= regions_ns
    layer_ns["regions"] += regions_ns
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (layer_ns[layer] / 1e9, "s")
    roots = sum(dur[i] for i in spans_of("cli.main"))
    harness_s = traced_wall - roots / 1e9
    m["bench.harness_s"] = (harness_s, "s")
    m["bench.accounted_ratio"] = (div(sum(layer_ns.values()) / 1e9 + harness_s, traced_wall), "ratio")
    return m


# ---------------------------------------------------------------------------
# metadata and output


def metadata(workload: str, seed: int, trace_flag: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    src_lines = 0
    pkg = os.path.join(SRC, "lbfrechet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace_flag,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": src_lines,
        "loop": "closed, one client, in-process",
        "isolation": "CPUs not pinned, caches not dropped",
    }


def select(spec_list, computed) -> dict:
    out = {}
    for spec in spec_list:
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"metric {spec['name']} measured in {unit}, declared {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in (os.path.join(SRC, "lbfrechet", "cli.py"), os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(need):
            print(f"perfbench: {need} is missing; run from a full source checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for path in (SRC, TESTS, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)

    import checks
    import gen
    from lbfrechet import cli

    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {gen.WORKLOADS}", file=sys.stderr)
        return 2

    setup_s, setup_raw, ops = setup(gen, args.workload, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, pass_times, pass_refs, passes = [], [], [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < budget:
        wall, times, refs, outcomes = run_pass(cli.main, ops)
        walls.append(wall)
        pass_times.append(times)
        pass_refs.append(refs)
        passes.append(outcomes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    computed, lines = end_to_end(args.workload, ops, walls, pass_times, pass_refs, setup_s, rss_mb)
    lines.append(f"setup_s unscaled {setup_raw:.6f} s")
    if args.trace:
        tracers = []
        for counters in (False, True):
            tracer = tracing.Tracer()
            tracer.install(counters)
            try:
                wall, times, refs, outcomes = run_pass(cli.main, ops, tracer)
            finally:
                tracer.uninstall()
            tracers.append((tracer, wall, sum(map(normalised, times, refs))))
            passes.append(outcomes)
        (spans_tracer, traced_wall, traced_s), (count_tracer, _, _) = tracers
        replay = {
            name: tracing.replay_ns(count_tracer.originals[name], count_tracer.count(name)[2])
            for _, _, name in tracing.COUNTED
        }
        os.makedirs(OUT, exist_ok=True)
        spans_tracer.write(os.path.join(OUT, f"spans-{args.workload}.tsv"))
        computed.update(per_layer(spans_tracer, count_tracer, replay, traced_wall))
        computed["bench.untraced_wall_s"] = (computed["wall_s"][0], "s")
        computed["bench.traced_wall_s"] = (traced_s, "s")
        computed["bench.trace_overhead_s"] = (traced_s - computed["wall_s"][0], "s")

    attempted, failed, reasons = count_failures(ops, passes, checks.check)
    failed_ratio = failed / attempted
    chosen = select(spec["per_layer"] if args.trace else spec["end_to_end"], computed)
    meta = metadata(args.workload, args.seed, args.trace)

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for line in lines:
        print(f"# {line}")
    print(f"# failed_ratio {failed_ratio:.6f} ({failed} of {attempted} operations)")
    for reason in reasons[:20]:
        print(f"# FAILED {reason}")
    for name, (value, unit) in sorted(computed.items()):
        print(f"# {name} {value} {unit}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "summary": lines, "failed": failed, "attempted": attempted,
                   "pass_times": pass_times, "pass_refs": pass_refs,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in computed.items()}}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
