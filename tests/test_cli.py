"""End-to-end CLI behaviour through main(argv)."""

import functools
import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from lbfrechet import cli
from lbfrechet.cli import main
from lbfrechet.lower_bound import decide_lb
from lbfrechet.model import Precise, UncertainCurve, curve_to_json, make_interval, make_set, reach_bound


@pytest.fixture
def write_curve(tmp_path):
    counter = [0]

    def _write(points, name=""):
        counter[0] += 1
        path = tmp_path / f"curve{counter[0]}.json"
        path.write_text(json.dumps(curve_to_json(UncertainCurve(points, name=name))))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def interval(lo, hi):
    return make_interval(F(lo), F(hi))


def test_decide_feasible(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    b = write_curve([interval(F(-3, 2), F(-1, 5)), interval(F(3, 2), 2)])
    code, out, _ = run(capsys, ["decide", "--delta", "1", a, b])
    assert code == 0
    assert out.strip() == "true"


def test_decide_infeasible_still_exits_zero(write_curve, capsys):
    a = write_curve([Precise(F(0))])
    b = write_curve([Precise(F(10))])
    code, out, _ = run(capsys, ["decide", "--delta", "1", a, b])
    assert code == 0
    assert out.strip() == "false"


def test_decide_witness_lines(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    b = write_curve([interval(F(-3, 2), F(-1, 5)), interval(F(3, 2), 2)])
    code, out, _ = run(capsys, ["decide", "--delta", "1", "--witness", a, b])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "true"
    assert lines[1].startswith("witness u: ")
    assert lines[2].startswith("witness v: ")


def test_decide_dump_regions(write_curve, capsys, tmp_path):
    a = write_curve([interval(0, 1)])
    b = write_curve([interval(F(-3, 2), F(-1, 5)), interval(F(3, 2), 2)])
    dump = tmp_path / "regions"
    code, _, _ = run(capsys, ["decide", "--delta", "1", "--dump-regions", str(dump), a, b])
    assert code == 0
    assert (dump / "final.txt").exists()


def test_traced_decide_on_a_pair_the_reach_bound_rejects(write_curve, capsys, tmp_path):
    """The reach filter skips only untraced sweeps.  On a pair it rejects
    (u's last vertex 5 is 4 from v's span [0, 1]), --dump-regions writes
    the full traced sweep's regions, every cell of every kind, and
    --witness prints false and no witness lines."""
    pts_u = [interval(0, 1)] * 3 + [Precise(F(5))]
    pts_v = [interval(0, 1)] * 3
    a, b = write_curve(pts_u), write_curve(pts_v)
    u, v = UncertainCurve(pts_u), UncertainCurve(pts_v)
    assert reach_bound([p.span() for p in pts_u], [p.span() for p in pts_v]) == 4
    dump = tmp_path / "regions"
    code, out, _ = run(capsys, ["decide", "--delta", "1", "--dump-regions", str(dump), a, b])
    assert code == 0 and out.strip() == "false"
    trace = decide_lb(u, v, F(1), trace=True).trace
    m, n = 4, 3
    tables = {kind: {(i, j): ps for i, j, ps in trace.stored(kind)} for kind in "UDRL"}
    for kind in "UD":
        assert set(tables[kind]) == {(i, j) for i in range(1, m + 1) for j in range(1, n)}
    for kind in "RL":
        assert set(tables[kind]) == {(i, j) for i in range(1, m) for j in range(1, n + 1)}
    want = tmp_path / "want"
    trace.dump_to(str(want))
    for kind in "UDRL":
        text = (dump / f"{kind}.txt").read_text()
        assert text == (want / f"{kind}.txt").read_text()
        cells = {tuple(int(x) for x in line.split()[:2]) for line in text.splitlines()}
        assert cells == {cell for cell, pieces in tables[kind].items() if pieces}
        assert cells, kind
    assert (dump / "final.txt").read_text() == ""
    code, out, _ = run(capsys, ["decide", "--delta", "1", "--witness", a, b])
    assert code == 0 and out.splitlines() == ["false"]


# Edge shapes of the traced sweep's row store, pinned from the tree that
# stored one dict entry per cell: (name, u spans, v spans, delta, stdout of
# decide --witness, stored cells per kind as (i, j, piece count), the
# --dump-regions files).
PINNED_SHAPES = [
    ("1x1", [(0, 1)], [("1/2", 2)], "1",
     "true\nwitness u: 0\nwitness v: 0.5\n",
     {"U": [], "D": [], "R": [], "L": []},
     {"U": "", "D": "", "R": "", "L": "", "final": "X 1 1 : (0,0.5) (1,0.5) (1,2) (0,1)\n"}),
    ("1x3-empty-base-cell", [(0, 1)], [("-3/2", "-1/5"), (3, 4), (0, "1/2")], "1",
     "false\n",
     {"U": [(1, 1, 1), (1, 2, 0)], "D": [(1, 1, 1), (1, 2, 0)], "R": [], "L": []},
     {"U": "1 1 : (0,-1) (0.8,-0.2) (0.8,1.8) (0,1)\n", "D": "1 1 : (0,-1) (0.8,-0.2) (0,-0.2)\n",
      "R": "", "L": "", "final": ""}),
    ("3x1", [(0, 1), (3, 4), ("-1/2", 0)], [(1, 2)], "3/2",
     "true\nwitness u: 0 3 0\nwitness v: 1.5\n",
     {"U": [], "D": [], "R": [(1, 1, 1), (2, 1, 1)], "L": [(1, 1, 1), (2, 1, 1)]},
     {"U": "", "D": "",
      "R": "1 1 : (0,1) (2.5,1) (3.5,2) (0.5,2) (0,1.5)\n2 1 : (3,1.5) (3.5,2) (3,2)\n",
      "L": "1 1 : (-0.5,1) (1,1) (1,2) (0.5,2)\n2 1 : (0,1.5) (3,1.5) (3.5,2) (0.5,2)\n",
      "final": "L 2 1 : (0,1.5)\n"}),
    ("2x2", [(0, 1), (2, 3)], [(0, 2), (1, 3)], "1",
     "true\nwitness u: 0 2\nwitness v: 0 1\n",
     {"U": [(1, 1, 1), (2, 1, 1)], "D": [(1, 1, 1), (2, 1, 1)],
      "R": [(1, 1, 1), (1, 2, 1)], "L": [(1, 1, 1), (1, 2, 1)]},
     {"U": "1 1 : (0,0) (1,0) (1,2) (0,1)\n2 1 : (2,1) (3,2) (3,4) (2,3)\n",
      "D": "1 1 : (0,-1) (1,0) (1,2) (0,1)\n2 1 : (2,1) (3,2) (2,2)\n",
      "R": "1 1 : (0,0) (1,0) (3,2) (1,2) (0,1)\n1 2 : (0,1) (2,1) (4,3) (2,3)\n",
      "L": "1 1 : (-1,0) (1,0) (1,2)\n1 2 : (0,1) (1,1) (1,2)\n",
      "final": "R 1 2 : (2,1) (3,2) (3,3) (2,3)\nU 2 1 : (2,1) (3,2) (3,3) (2,3)\n"
               "D 2 1 : (2,1) (3,2) (2,2)\n"}),
    ("2x2-empty-interior-cell", [(0, 1), (4, 5)], [(1, 1), (0, 4)], "1",
     "true\nwitness u: 0 4\nwitness v: 1 3\n",
     {"U": [(1, 1, 1), (2, 1, 1)], "D": [(1, 1, 1), (2, 1, 0)],
      "R": [(1, 1, 1), (1, 2, 1)], "L": [(1, 1, 1), (1, 2, 1)]},
     {"U": "1 1 : (0,1) (1,1) (1,2)\n2 1 : (4,3) (5,4) (5,6) (4,5)\n",
      "D": "1 1 : (0,-1) (1,0) (1,1) (0,1)\n",
      "R": "1 1 : (0,1) (2,1)\n1 2 : (0,0) (1,0) (5,4) (3,4) (0,1)\n",
      "L": "1 1 : (0,1) (1,1)\n1 2 : (-1,0) (1,0) (1,2)\n",
      "final": "R 1 2 : (4,3) (5,4) (4,4)\nU 2 1 : (4,3) (5,4) (4,4)\n"}),
]


@pytest.mark.parametrize("shape", PINNED_SHAPES, ids=[s[0] for s in PINNED_SHAPES])
def test_row_store_edge_shapes_match_the_pinned_dumps(write_curve, capsys, tmp_path, shape):
    """On 1x1, 1xn, mx1 and 2x2 pairs the traced decide stores the pinned
    cells (an empty region as a stored cell with no piece), and
    decide --witness --dump-regions prints the pinned witness and writes
    the pinned region files."""
    _, su, sv, delta, stdout, cells, files = shape
    u, v = (UncertainCurve([interval(F(lo), F(hi)) for lo, hi in spans]) for spans in (su, sv))
    trace = decide_lb(u, v, F(delta), trace=True).trace
    for kind in "UDRL":
        assert [(i, j, len(ps)) for i, j, ps in trace.stored(kind)] == cells[kind], kind
    dump = tmp_path / "regions"
    argv = ["decide", "--delta", delta, "--witness", "--dump-regions", str(dump)]
    code, out, err = run(capsys, argv + [write_curve(u.points), write_curve(v.points)])
    assert (code, out, err) == (0, stdout, "")
    for name, text in files.items():
        assert (dump / f"{name}.txt").read_text() == text, name


def test_decide_json_lines(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    b = write_curve([interval(F(-3, 2), F(-1, 5)), interval(F(3, 2), 2)])
    code, out, _ = run(
        capsys,
        ["--output", "json-lines", "decide", "--delta", "1", "--witness", a, b],
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "decide"
    assert record["result"] == "true"
    assert set(record["inputs"]) == {a, b}
    for digest in record["inputs"].values():
        assert len(digest) == 64
    assert "witness_u" in record and "witness_v" in record


def test_decide_rejects_nonpositive_delta(write_curve, capsys):
    a = write_curve([Precise(F(0))])
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--delta", "0", a, a])
    assert exc.value.code == 2
    capsys.readouterr()


def test_value_command(write_curve, capsys):
    a = write_curve([Precise(F(0)), Precise(F(4))])
    b = write_curve([Precise(F(1)), Precise(F(5))])
    code, out, _ = run(capsys, ["value", "--tol", "1/128", a, b])
    assert code == 0
    got = F(out.strip())
    assert abs(got - 1) <= F(1, 128)


def test_precise_variants(write_curve, capsys):
    a = write_curve([Precise(F(0)), Precise(F(4))])
    b = write_curve([Precise(F(0)), Precise(F(4))])
    for variant, want in (("frechet", "0"), ("discrete", "0"), ("weak", "0")):
        code, out, _ = run(capsys, ["precise", "--variant", variant, a, b])
        assert code == 0 and out.strip() == want
    code, out, _ = run(
        capsys, ["precise", "--variant", "discrete-weak", "--adjacency", "4", a, b]
    )
    assert code == 0 and out.strip() == "4"


def test_precise_rejects_uncertain_input(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    code, _, err = run(capsys, ["precise", "--variant", "frechet", a, a])
    assert code == 3
    assert "precise" in err


def test_weak_lb_decide_and_value(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    b = write_curve([interval(2, 3)])
    code, out, _ = run(capsys, ["weak-lb", "value", a, b])
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, ["weak-lb", "decide", "--delta", "1", a, b])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, ["weak-lb", "decide", "--delta", "1/2", a, b])
    assert code == 0 and out.strip() == "false"


def test_weak_lb_decide_requires_delta(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    code, _, err = run(capsys, ["weak-lb", "decide", a, a])
    assert code == 2
    assert "--delta" in err


def test_weak_lb_cap_exit(write_curve, capsys):
    a = write_curve([interval(0, 1)] * 4)
    code, _, err = run(capsys, ["weak-lb", "value", "--cap", "2", a, a])
    assert code == 4
    assert "cap" in err


def test_weak_lb_cap_is_a_decision_budget(write_curve, capsys):
    """Every DP run of the decision at 1/2 stays under the cap, but their
    sum does not (see test_cap_is_one_budget_per_decision).  The value
    probes the reach bound 1 first (last vertices [0, 1] and [2, 3]), which
    is feasible and decided under the same cap, so it never probes 1/2."""
    a = write_curve([interval(0, 1), interval(2, 3), interval(0, 1)])
    b = write_curve([interval(1, 2), interval(0, 1), interval(2, 3)])
    code, out, err = run(capsys, ["weak-lb", "decide", "--delta", "1/2", "--cap", "400", a, b])
    assert code == 4 and out == ""
    assert err.splitlines() == ["lbf: weak DP states of one decision exceeded cap 400"]
    code, out, _ = run(capsys, ["weak-lb", "value", "--cap", "400", a, b])
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, ["weak-lb", "value", a, b])
    assert code == 0 and out.strip() == "1"


def test_lbf_cap_env(write_curve, capsys, monkeypatch):
    a = write_curve([interval(0, 1)] * 4)
    monkeypatch.setenv("LBF_CAP", "2")
    code, _, _ = run(capsys, ["weak-lb", "value", a, a])
    assert code == 4
    monkeypatch.setenv("LBF_CAP", "100000")
    code, out, _ = run(capsys, ["weak-lb", "value", a, a])
    assert code == 0 and out.strip() == "0"


def test_oracle_command(write_curve, capsys):
    a = write_curve([interval(0, 2)])
    b = write_curve([Precise(F(5))])
    code, out, _ = run(
        capsys, ["oracle", "--variant", "discrete", "--side", "lower", a, b]
    )
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(
        capsys,
        ["oracle", "--variant", "discrete", "--side", "upper", "--resolution", "3", a, b],
    )
    assert code == 0 and out.strip() == "5"


def test_oracle_include_position(write_curve, capsys):
    a = write_curve([interval(0, 2)])
    b = write_curve([Precise(F(1, 3))])
    code, out, _ = run(
        capsys,
        [
            "oracle",
            "--variant",
            "discrete",
            "--side",
            "lower",
            "--include-position",
            "1/3",
            a,
            b,
        ],
    )
    assert code == 0 and out.strip() == "0"


def test_oracle_cap_exit(write_curve, capsys):
    a = write_curve([interval(0, 1)] * 3)
    code, _, _ = run(
        capsys,
        ["oracle", "--variant", "discrete", "--side", "lower", "--cap", "3", a, a],
    )
    assert code == 4


def test_missing_file_is_exit_three(capsys):
    code, _, err = run(capsys, ["decide", "--delta", "1", "/nonexistent/a.json", "/nonexistent/b.json"])
    assert code == 3
    assert err


def test_malformed_curve_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1, "points": [{"type": "interval", "lo": "2", "hi": "1"}]}')
    code, _, err = run(capsys, ["decide", "--delta", "1", str(bad), str(bad)])
    assert code == 3
    assert err


@pytest.mark.parametrize("dim", ["true", "1.0"])
def test_non_integer_dimension_is_exit_three(tmp_path, capsys, dim):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"dimension": {dim}, "points": [{{"type": "precise", "x": "0"}}]}}')
    code, out, err = run(capsys, ["decide", "--delta", "1", str(bad), str(bad)])
    assert (code, out) == (3, "")
    assert len(err.strip().splitlines()) == 1 and "dimension" in err


def test_deeply_nested_curve_json_is_exit_three(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    one = tmp_path / "one.json"
    one.write_text('{"dimension": 1, "points": [{"type": "precise", "x": "0"}]}')
    for argv in (["decide", "--delta", "1", str(deep), str(one)], ["value", str(one), str(deep)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert len(err.strip().splitlines()) == 1 and "nested too deeply" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "point",
    [
        {"type": "interval", "lo": "1" * 5000, "hi": "2"},
        {"type": "interval", "lo": "2", "hi": "1", "note": "x" * 5000},
        functools.reduce(lambda inner, _: [inner], range(899), []),
    ],
    ids=["long-literal", "lo-above-hi-with-long-field", "900-deep-list"],
)
def test_malformed_vertex_error_is_one_short_line(tmp_path, capsys, point):
    """A malformed vertex exits 3 with one stderr line that quotes a
    bounded repr of the offending value, however large it is."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 1, "points": [point]}))
    code, out, err = run(capsys, ["decide", "--delta", "1", str(bad), str(bad)])
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and len(err.rstrip("\n").encode()) <= 200, err
    assert "Traceback" not in err


def test_reduce_ub_sat_and_verify(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    u_path = str(tmp_path / "U.json")
    v_path = str(tmp_path / "V.json")
    code, out, _ = run(capsys, ["reduce", "ub-sat", str(cnf), "-o", u_path, v_path])
    assert code == 0
    assert "wrote" in out
    assert "delta 1, gap 1.5" in out
    u_doc = json.loads(Path(u_path).read_text())
    assert u_doc["dimension"] == 1
    code, out, _ = run(capsys, ["verify", str(cnf), "--kind", "ub"])
    assert code == 0
    assert "ok=true" in out
    assert "distance frechet_upper = 1.5" in out
    assert "distance discrete_upper = 1.5" in out


def test_reduce_weak_and_verify(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("1 0\n")
    u_path = str(tmp_path / "U.json")
    v_path = str(tmp_path / "V.json")
    code, out, _ = run(
        capsys, ["reduce", "weak-discrete", str(cnf), "-o", u_path, v_path]
    )
    assert code == 0
    code, out, _ = run(capsys, ["verify", str(cnf), "--kind", "weak"])
    assert code == 0
    assert "ok=true" in out
    assert "distance discrete_weak_lower = 1" in out


def test_verify_json_lines(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("1 0\n-1 0\n")
    code, out, _ = run(
        capsys, ["--output", "json-lines", "verify", str(cnf), "--kind", "ub"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert record["sat"] is False
    assert record["distances"] == {"frechet_upper": "1", "discrete_upper": "1"}


@pytest.mark.parametrize("model", ["indecisive", "imprecise"])
def test_verify_ub_cap_exit(tmp_path, capsys, model):
    """Three variables give 2**3 realisations of the variable curve."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("1 2 3 0\n-1 -2 -3 0\n")
    argv = ["verify", str(cnf), "--kind", "ub", "--model", model, "--cap", "4"]
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert err.splitlines() == ["lbf: enumeration of 8 realisations exceeds cap 4"]
    code, out, _ = run(capsys, argv[:-2] + ["--cap", "8"])
    assert code == 0 and "realisations=8 " in out


@pytest.mark.parametrize("model", ["indecisive", "imprecise"])
def test_verify_reduction_ub_raises_cap_exceeded(model):
    from lbfrechet.oracle import CapExceeded, EnumerationSpec
    from lbfrechet.reductions import CnfFormula, build_ub_sat, verify_reduction

    inst = build_ub_sat(CnfFormula(3, ((1, 2, 3), (-1, -2, -3))), model=model)
    with pytest.raises(CapExceeded, match="enumeration of 8 realisations exceeds cap 4"):
        verify_reduction(inst, EnumerationSpec(cap=4))


def test_reduce_lift2d(write_curve, tmp_path, capsys):
    a = write_curve([interval(0, 1), Precise(F(2))])
    b = write_curve([Precise(F(1))])
    out_a = str(tmp_path / "A2.json")
    out_b = str(tmp_path / "B2.json")
    code, _, _ = run(
        capsys, ["reduce", "lift2d", a, b, "-M", "100", "-o", out_a, out_b]
    )
    assert code == 0
    doc = json.loads(Path(out_a).read_text())
    assert doc["dimension"] == 2
    assert doc["points"][1] == {"type": "precise", "x": "0", "y": "100"}
    # whole files, key order included, for every vertex kind
    a = write_curve([interval(0, F(1, 3)), Precise(F(5, 2)), make_set([-1, F(1, 4), 3])], name="a")
    b = write_curve([make_set([1, F(7, 3)]), Precise(F(-4))])
    code, out, _ = run(
        capsys, ["reduce", "lift2d", a, b, "-M", "100", "-o", out_a, out_b]
    )
    assert (code, out) == (0, f"wrote {out_a} and {out_b}\n")
    sentinel = {"type": "precise", "x": "0", "y": "100"}
    want_a = {"dimension": 2, "name": "a", "points": [
        {"type": "interval", "lo": "0", "hi": "1/3", "y": "0"}, sentinel,
        {"type": "precise", "x": "2.5", "y": "0"}, sentinel,
        {"type": "set", "xs": ["-1", "0.25", "3"], "y": "0"},
    ]}
    want_b = {"dimension": 2, "name": "", "points": [
        {"type": "set", "xs": ["1", "7/3"], "y": "0"}, sentinel,
        {"type": "precise", "x": "-4", "y": "0"},
    ]}
    for path, want in ((out_a, want_a), (out_b, want_b)):
        assert Path(path).read_text() == json.dumps(want, indent=1) + "\n"
    # sentinel too small for the coordinates
    code, _, err = run(
        capsys, ["reduce", "lift2d", a, b, "-M", "10", "-o", out_a, out_b]
    )
    assert code == 3
    assert "sentinel" in err


def test_bad_dimacs_is_exit_three(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\nfoo 0\n")
    code, _, err = run(capsys, ["verify", str(cnf), "--kind", "ub"])
    assert code == 3
    assert err


def test_empty_clause_is_exit_three(tmp_path, capsys):
    # unsatisfiable; dropping the empty clause would report sat and ok
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n0\n")
    for kind in ("ub", "weak"):
        code, out, err = run(capsys, ["verify", str(cnf), "--kind", kind])
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "empty clause" in err


@pytest.mark.parametrize("kind", ["ub", "weak"])
def test_verify_rejects_a_huge_variable_index_before_building(tmp_path, capsys, kind):
    # the instance would grow with the variable index; the brute-force
    # limit is checked between parsing and building
    cnf = tmp_path / "f.cnf"
    cnf.write_text("2000000000 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", str(cnf), "--kind", kind])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.splitlines() == ["lbf: brute-force satisfiability is limited to 20 variables"]


@pytest.mark.parametrize("what", ["ub-sat", "weak-discrete"])
@pytest.mark.parametrize("model", ["indecisive", "imprecise"])
def test_reduce_rejects_a_huge_instance_before_building(tmp_path, capsys, what, model):
    # the 9-byte formula would give about a million scalars (ub-sat,
    # weak-discrete imprecise) or 2 * 10**10 (weak-discrete indecisive)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("100000 0\n")
    out_u, out_v = tmp_path / "U.json", tmp_path / "V.json"
    start = time.perf_counter()
    code, out, err = run(capsys, ["reduce", what, str(cnf), "--model", model, "-o", str(out_u), str(out_v)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"lbf: the {what} instance would write ")
    assert err.endswith(" scalars, above the limit 200000\n")
    assert not out_u.exists() and not out_v.exists()


def test_oracle_cap_is_checked_before_listing_candidates(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    b = write_curve([interval(2, 3)])
    argv = ["oracle", "--variant", "frechet", "--side", "lower",
            "--resolution", "1000000", "--cap", "10", a, b]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.splitlines() == ["lbf: 1000000 x 1000000 realisation pairs exceed cap 10"]


def test_oracle_cap_message_with_a_count_past_str_limit(write_curve, capsys):
    """2**15000 realisations has 4516 digits, more than str() converts."""
    a = write_curve([interval(0, 1)] * 15_000)
    b = write_curve([Precise(F(0))])
    code, out, err = run(capsys, ["oracle", "--variant", "frechet", "--side", "lower", a, b])
    assert (code, out) == (4, "")
    assert err == "lbf: more than 10^4515 x 1 realisation pairs exceed cap 1000000\n"


@pytest.mark.parametrize("kind", ["ub", "weak"])
def test_verify_checks_the_cap_before_brute_force(tmp_path, capsys, kind):
    """20 variables: 2**20 assignments to try, and more realisations than
    the default cap, which verify must see first."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 20 2\n1 0\n-1 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", str(cnf), "--kind", kind])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1 and "exceed" in err


def test_unknown_subcommand_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


ORACLE = ["oracle", "--variant", "discrete", "--side", "lower"]


@pytest.mark.parametrize(
    "env_cap, flags",
    [
        ("abc", ORACLE),
        ("0", ORACLE),
        (None, [*ORACLE, "--resolution", "1"]),
        (None, [*ORACLE, "--resolution", "x"]),
        (None, [*ORACLE, "--cap", "-5"]),
        (None, [*ORACLE, "--stop-at", "1/0"]),
        (None, ["weak-lb", "decide", "--delta", "-1"]),
        (None, ["weak-lb", "value", "--delta", "2"]),
    ],
)
def test_bad_numbers_are_usage_errors(write_curve, capsys, monkeypatch, env_cap, flags):
    a = write_curve([interval(0, 1)])
    if env_cap is not None:
        monkeypatch.setenv("LBF_CAP", env_cap)
    argv = [*flags, a, a]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err


def test_unknown_option_is_one_line_usage_error(write_curve, capsys):
    a = write_curve([interval(0, 1)])
    with pytest.raises(SystemExit) as exc:
        main([*ORACLE, "--no-such-option", "2", a, a])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert "Traceback" not in out.err and "--no-such-option" in out.err


@pytest.mark.parametrize("mode", [[], ["--output", "json-lines"]])
@pytest.mark.parametrize("command", [["value"], ["decide", "--delta", "1"]])
def test_library_warning_is_one_line(write_curve, capsys, mode, command):
    a = write_curve([make_set([F(0), F(1)]), interval(2, 3)])
    b = write_curve([interval(0, 1), make_set([F(2), F(4)])])
    code, out, err = run(capsys, [*mode, *command, a, b])
    assert code == 0 and out
    assert err == (
        "lbf: warning: finite-set vertex hulled to its spanning interval "
        "for the lower-bound decision\n"
    )


def _run_any(capsys, argv):
    """(exit code, stdout, stderr), with argparse's SystemExit as a code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_reuse_matches_fresh_parser(write_curve, capsys):
    """main builds its parser once per process; calls in a row must each
    give what the same call gives on a freshly built parser."""
    a = write_curve([interval(0, 2)])
    b = write_curve([Precise(F(1, 3))])
    oracle = ["oracle", "--variant", "discrete", "--side", "lower"]
    calls = [
        # an append default that leaked would keep 1/3 in the second call
        [*oracle, "--include-position", "1/3", a, b],
        [*oracle, a, b],
        [*oracle, a, b],
        ["--output", "json-lines", *oracle, a, b],
        [*oracle, "--resolution", "1", a, b],
        [*oracle, "--resolution", "3", a, b],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_run_any(capsys, argv))
    assert [r[1].strip() for r in fresh[:3]] == ["0", "1/3", "1/3"]
    assert json.loads(fresh[3][1])["result"] == "1/3"
    assert fresh[4][0] == 2 and fresh[5][0] == 0
    cli._parser.cache_clear()
    assert [_run_any(capsys, argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1
