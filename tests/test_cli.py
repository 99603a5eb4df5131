"""End-to-end CLI behaviour through main(argv)."""

import json
from fractions import Fraction as F

import pytest

from lbfrechet import cli
from lbfrechet.cli import main
from lbfrechet.model import Precise, UncertainCurve, curve_to_json, make_interval, make_set


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
    """Every DP run of the first probed decision stays under the cap, but
    their sum does not (see test_cap_is_one_budget_per_decision)."""
    a = write_curve([interval(0, 1), interval(2, 3), interval(0, 1)])
    b = write_curve([interval(1, 2), interval(0, 1), interval(2, 3)])
    code, out, err = run(capsys, ["weak-lb", "value", "--cap", "400", a, b])
    assert code == 4 and out == ""
    assert err.splitlines() == ["lbf: weak DP states of one decision exceeded cap 400"]
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


def test_reduce_ub_sat_and_verify(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    u_path = str(tmp_path / "U.json")
    v_path = str(tmp_path / "V.json")
    code, out, _ = run(capsys, ["reduce", "ub-sat", str(cnf), "-o", u_path, v_path])
    assert code == 0
    assert "wrote" in out
    assert "delta 1, gap 1.5" in out
    u_doc = json.loads(open(u_path).read())
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
    doc = json.loads(open(out_a).read())
    assert doc["dimension"] == 2
    assert doc["points"][1] == {"type": "precise", "x": "0", "y": "100"}
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
