"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from lbfrechet import cli  # noqa: E402
from lbfrechet.model import curve_to_json  # noqa: E402


def _contents(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def _argv(ops, directory):
    return [[a.replace(directory, "DIR") for a in op.argv] for op in ops]


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in gen.WORKLOADS:
        dirs = [str(tmp_path / tag / workload) for tag in ("a", "b", "c")]
        a = gen.build(workload, 7, dirs[0])
        b = gen.build(workload, 7, dirs[1])
        c = gen.build(workload, 8, dirs[2])
        assert _contents(dirs[0]) == _contents(dirs[1])
        assert _argv(a, dirs[0]) == _argv(b, dirs[1])
        assert [op.check.get("expected") for op in a] == [op.check.get("expected") for op in b]
        assert _contents(dirs[0]) != _contents(dirs[2])
        # the seed draws values, not shapes: same batch, same sizes
        assert [(op.kind, op.cells) for op in a] == [(op.kind, op.cells) for op in c]


def _record(result, **extra):
    return json.dumps(dict({"command": "x", "inputs": {}, "result": result}, **extra)) + "\n"


def test_wrong_answer_counts_as_failed(tmp_path):
    ops = gen.build("lb-decide", 3, str(tmp_path))[:2]
    assert [op.check["expected"] for op in ops] == [True, False]
    right = [(0, _record("true"), ""), (0, _record("false"), "")]
    assert run.count_failures(ops, [right, right], checks.check)[:2] == (4, 0)

    wrong = [(0, _record("false"), ""), (0, _record("false"), "")]
    attempted, failed, reasons = run.count_failures(ops, [wrong, wrong], checks.check)
    assert (attempted, failed) == (4, 2)
    assert "planted answer is true" in reasons[0]

    crashed = [(None, "", "AssertionError: witness fails"), right[1]]
    assert run.count_failures(ops, [crashed], checks.check)[:2] == (2, 1)
    flipped = [right[0], (0, _record("true"), "")]
    assert run.count_failures(ops, [right, flipped], checks.check)[:2] == (4, 1)


def test_tampered_witness_fails_the_check(tmp_path):
    rng = random.Random(5)
    u, v, delta, _ = gen.family_pair(rng, "rand", 6)
    paths = []
    for name, curve in (("u", u), ("v", v)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(curve_to_json(curve), fh)
    op = gen.Op("witness", ["decide", "--witness", "--delta", gen.fmt(delta)] + paths, 36,
                {"u": u, "v": v, "delta": delta})
    _, rc, out, _ = run.run_op(cli.main, op)
    rec = json.loads(out)
    assert rc == 0 and checks.check(op, rec) is None
    _, hi = u.span()
    rec["witness_u"][0] = gen.fmt(hi + 10 * delta)
    assert checks.check(op, rec) == "witness is not a realisation of the input curves"


def test_verify_ub_accepts_only_the_documented_undercut():
    op = gen.Op("verify-ub", [], 0, {"formula": gen.UB_FORMULA, "model": "indecisive"})
    rec = {
        "ok": False, "sat": True, "threshold_ok": True, "equivalence_ok": False, "lengths_ok": True,
        "distances": {"frechet_upper": "5/4", "discrete_upper": "3/2"},
        "notes": ["continuous upper 1.25 undercuts the advertised 1.5; the decision threshold "
                  "(= 1 iff unsatisfiable) still separates"],
    }
    assert checks.check(op, rec) is None
    assert checks.check(op, dict(rec, threshold_ok=False)) is not None
    assert checks.check(op, dict(rec, notes=[])) is not None
    assert checks.check(op, dict(rec, distances={"frechet_upper": "1", "discrete_upper": "3/2"})) is not None
    assert checks.check(op, dict(rec, distances={"frechet_upper": "5/4", "discrete_upper": "1"})) is not None


def test_self_times_on_a_hand_built_span_tree():
    # cli.main [0, 100] > lower_bound.decide_lb [10, 40] > regions.k [20, 30];
    # cli.main > model.load_curve [50, 90]
    names = ["cli.main", "lower_bound.decide_lb", "regions.k", "model.load_curve"]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    assert tracing.self_times(parent, start, end) == [30, 20, 10, 40]
    layers = tracing.layer_self_ns(names, parent, start, end)
    assert (layers["cli"], layers["lower_bound"], layers["regions"], layers["model"]) == (30, 20, 10, 40)
    assert sum(layers.values()) == 100


def test_tracer_records_spans_and_restores_the_program(tmp_path):
    import lbfrechet.cli
    import lbfrechet.lower_bound

    originals = (lbfrechet.cli.decide_lb, lbfrechet.lower_bound._mm_h_r)
    ops = gen.build("lb-decide", 3, str(tmp_path))[:1]
    tracer = tracing.Tracer()
    tracer.install(counters=True)
    try:
        _, _, _, outcomes = run.run_pass(cli.main, ops, tracer)
    finally:
        tracer.uninstall()
    assert (lbfrechet.cli.decide_lb, lbfrechet.lower_bound._mm_h_r) == originals
    assert outcomes[0][0] == 0
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["cli.main", "model.load_curve", "model.load_curve", "lower_bound.decide_lb"]
    assert [s[2] for s in spans] == [-1, 0, 0, 0]
    calls, _, sample = tracer.count("regions._mm_h_r")
    assert calls > 0 and 0 < len(sample) <= tracing.SAMPLE_CAP
    assert tracing.replay_ns(tracer.originals["regions._mm_h_r"], sample) > 0
