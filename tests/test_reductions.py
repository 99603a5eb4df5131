"""CNF-to-curve reduction builders and their verification replay."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from lbfrechet import oracle, precise, reductions
from lbfrechet.model import FiniteSet, Interval, Precise, UncertainCurve
from lbfrechet.oracle import EnumerationSpec, enumerate_realisations, enumeration_size
from lbfrechet.precise import discrete_frechet, frechet_value
from lbfrechet.reductions import (
    CnfFormula,
    GadgetCheck,
    ReductionInstance,
    build_ub_sat,
    build_weak_discrete_imprecise,
    build_weak_discrete_indecisive,
    check_instance_size,
    check_ub_gadgets,
    lift_to_2d,
    parse_dimacs,
    satisfiable,
    ub_abs2_curve,
    ub_abs_curve,
    ub_clause_gadget,
    realise_variable_stack,
    verify_reduction,
)


def point_repr(curve):
    out = []
    for p in curve.points:
        if isinstance(p, Precise):
            out.append(str(p.x))
        elif isinstance(p, Interval):
            out.append(f"[{p.lo},{p.hi}]")
        else:
            out.append("{" + ",".join(str(x) for x in p.xs) + "}")
    return " ".join(out)


# --- formulas ----------------------------------------------------------------


def test_cnf_validates():
    with pytest.raises(ValueError):
        CnfFormula(0, ((1,),))
    with pytest.raises(ValueError):
        CnfFormula(1, ())
    with pytest.raises(ValueError):
        CnfFormula(1, ((),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((0,),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((2,),))


def test_satisfiable_matches_truth_table():
    for num_vars in (1, 2, 3):
        lits = [i for v in range(1, num_vars + 1) for i in (v, -v)]
        for c1 in itertools.combinations(lits, 2):
            for c2 in itertools.combinations(lits, 2):
                f = CnfFormula(num_vars, (c1, c2))
                want = any(
                    f.satisfied_by(bits)
                    for bits in itertools.product((False, True), repeat=num_vars)
                )
                assert satisfiable(f) == want


def test_parse_dimacs_plain():
    f = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2, 3), (-1, 2))


def test_parse_dimacs_comments_and_loose_format():
    text = """c a comment
% another style
p cnf 2 2
1 2 0 -1
-2 0
"""
    f = parse_dimacs(text)
    assert f.clauses == ((1, 2), (-1, -2))


def test_parse_dimacs_missing_header_and_trailing_zero():
    f = parse_dimacs("1 -3 0\n2 3")
    assert f.num_vars == 3
    assert f.clauses == ((1, -3), (2, 3))


def test_parse_dimacs_satlib_trailer():
    # SATLIB files end with a "%" line and a lone 0
    f = parse_dimacs("c uf3\np cnf 3 2\n 1 -2 0\n 2 3 0\n%\n0\n\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (2, 3))


@pytest.mark.parametrize(
    "text",
    ["p cnf 2 2\n1 2 0\n0\n", "p cnf 2 2\n1 2 0 0\n", "0\n1 2 0\n"],
    ids=["lone-zero-line", "double-zero", "before-first-clause"],
)
def test_parse_dimacs_rejects_empty_clause(text):
    with pytest.raises(ValueError, match="empty clause"):
        parse_dimacs(text)


def test_parse_dimacs_errors():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf x 1\n1 0")
    with pytest.raises(ValueError):
        parse_dimacs("p dnf 1 1\n1 0")
    with pytest.raises(ValueError):
        parse_dimacs("1 two 0")
    with pytest.raises(ValueError):
        parse_dimacs("c only comments\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n2 0")


# --- upper-bound construction -------------------------------------------------


def test_ub_single_clause_duplicated():
    inst = build_ub_sat(CnfFormula(3, ((1, -2, 3),)))
    assert len(inst.formula.clauses) == 1
    assert len(inst.effective_formula.clauses) == 2
    assert inst.effective_formula.clauses[0] == inst.effective_formula.clauses[1]
    assert "single clause duplicated to keep curve endpoints alignable" in inst.notes


def test_ub_frozen_curves():
    inst = build_ub_sat(CnfFormula(3, ((1, -2, 3),)))
    assert inst.delta == 1 and inst.gap_value == F(3, 2)
    u = (
        "1 5/2 -1/2 1/2 -1/2 1/2 -1/2 1/2 9/2 {-3/2,0} 5/2 {-3/2,0} 5/2 "
        "{-3/2,0} 5/2 5/2 -1/2 1/2 -1/2 1/2 -1/2 1/2 1"
    )
    v = "3/2 1/2 7/2 0 3/2 -3/2 3/2 0 3/2 7/2 0 3/2 -3/2 3/2 0 3/2 3/2 1/2"
    assert (point_repr(inst.u), point_repr(inst.v)) == (u, v)
    imp = build_ub_sat(CnfFormula(3, ((1, -2, 3),)), model="imprecise")
    assert (point_repr(imp.u), point_repr(imp.v)) == (u.replace("{", "[").replace("}", "]"), v)
    # two clauses, no duplication; variable 2 is absent from the first (-3/4)
    u = "1 5/2 -1/2 1/2 -1/2 1/2 9/2 {-3/2,0} 5/2 {-3/2,0} 5/2 5/2 -1/2 1/2 -1/2 1/2 1"
    v = "3/2 1/2 7/2 0 3/2 -3/4 3/2 7/2 -3/2 3/2 0 3/2 3/2 1/2"
    for model, want_u in (("indecisive", u), ("imprecise", u.replace("{", "[").replace("}", "]"))):
        inst = build_ub_sat(CnfFormula(2, ((1,), (-1, 2))), model=model)
        assert (point_repr(inst.u), point_repr(inst.v)) == (want_u, v)
        assert inst.notes == ()


def test_ub_imprecise_uses_intervals():
    ind = build_ub_sat(CnfFormula(3, ((1, -2, 3),)))
    imp = build_ub_sat(CnfFormula(3, ((1, -2, 3),)), model="imprecise")
    assert imp.model == "imprecise"
    # identical layout, two-state vertices hulled into intervals
    assert len(imp.u) == len(ind.u) and len(imp.v) == len(ind.v)
    kinds = {type(p).__name__ for p in imp.u.points}
    assert kinds == {"Precise", "Interval"}
    for a, b in zip(ind.u.points, imp.u.points):
        if isinstance(a, FiniteSet):
            assert isinstance(b, Interval)
            assert (b.lo, b.hi) == (a.xs[0], a.xs[-1]) == (F(-3, 2), F(0))


def test_ub_lengths_formula():
    for formula in (
        CnfFormula(1, ((1,),)),
        CnfFormula(2, ((1, 2), (-1, 2))),
        CnfFormula(3, ((1, -2, 3), (2, 3), (-1,))),
    ):
        for model in ("indecisive", "imprecise"):
            inst = build_ub_sat(formula, model=model)
            eff = inst.effective_formula
            c, v = len(eff.clauses), eff.num_vars
            assert len(inst.u) == 2 * c + 4 * v * c - 2 * v + 1
            assert len(inst.v) == 5 * c + 2 * v * c - 4
            assert inst.expected_lengths == (len(inst.u), len(inst.v))


def test_ub_verify_clean_single_variable():
    rep = verify_reduction(build_ub_sat(CnfFormula(1, ((1,),))))
    assert rep.sat is True
    assert rep.distances == {"frechet_upper": F(3, 2), "discrete_upper": F(3, 2)}
    assert rep.lengths_ok and rep.equivalence_ok and rep.threshold_ok
    assert rep.gadget_ok and rep.ok


def test_ub_verify_unsat():
    rep = verify_reduction(build_ub_sat(CnfFormula(1, ((1,), (-1,)))))
    assert rep.sat is False
    assert rep.distances == {"frechet_upper": F(1), "discrete_upper": F(1)}
    assert rep.equivalence_ok and rep.threshold_ok and rep.ok


def test_ub_verify_continuous_undercut_signature():
    # the known satisfiable three-variable case where a sliding matching
    # beats the advertised gap on the continuous side only
    rep = verify_reduction(build_ub_sat(CnfFormula(3, ((1, 3), (-1, 2, -3)))))
    assert rep.sat is True
    assert rep.distances["discrete_upper"] == F(3, 2)
    assert rep.distances["frechet_upper"] == F(5, 4)
    assert rep.threshold_ok and not rep.equivalence_ok and not rep.ok
    assert rep.gadget_ok is False
    assert rep.notes[-1] == (
        "continuous upper 1.25 undercuts the advertised 1.5; the decision "
        "threshold (= 1 iff unsatisfiable) still separates"
    )
    assert any("frechet distance 5/4 != 3/2" in n for n in rep.notes)


def test_ub_verify_continuous_collapse_signature():
    # a narrow clause over two variables: every realisation stays within
    # continuous distance 1, so the continuous threshold stops separating
    # while the discrete one still does
    rep = verify_reduction(build_ub_sat(CnfFormula(2, ((1,),))))
    assert rep.sat is True
    assert rep.distances["discrete_upper"] == F(3, 2)
    assert rep.distances["frechet_upper"] == F(1)
    assert not rep.threshold_ok and not rep.equivalence_ok and not rep.ok
    assert rep.lengths_ok and rep.range_ok
    assert rep.notes[-1] == (
        "continuous upper collapses to 1 despite satisfiability; only the "
        "discrete threshold separates"
    )


def test_gadget_check_discrete_vs_continuous():
    eff = build_ub_sat(CnfFormula(3, ((1, 3), (-1, 2, -3)))).effective_formula
    gc = check_ub_gadgets(eff)
    assert isinstance(gc, GadgetCheck)
    assert gc.discrete_ok is True
    assert gc.continuous_ok is False
    assert not gc.ok
    assert all("frechet distance" in p for p in gc.problems)


def test_gadget_catch_distances():
    from lbfrechet.precise import discrete_frechet, frechet_value

    for v in (1, 2, 3):
        catch = ub_abs_curve(v)
        assert frechet_value(ub_abs2_curve(), catch) == 1
        assert discrete_frechet(ub_abs2_curve(), catch) == 1


def test_gadget_clause_vs_stack():
    from lbfrechet.precise import discrete_frechet

    f = CnfFormula(2, ((1, -2),))
    cl = f.clauses[0]
    cg = ub_clause_gadget(cl, 2)
    for bits in itertools.product((False, True), repeat=2):
        stack = realise_variable_stack(2, bits)
        want = F(3, 2) if f.clause_satisfied(0, bits) else F(1)
        assert discrete_frechet(stack, cg) == want


# A subset of the acceptance suite's formula family: satisfiable and
# unsatisfiable, one to three variables, with the continuous undercut
# (two clauses over three variables) and collapse (one narrow clause).
UB_TWO_SIDED = [
    CnfFormula(1, ((1,), (-1,))),
    CnfFormula(2, ((1,),)),
    CnfFormula(2, ((1, -2), (-1, 2))),
    CnfFormula(2, ((1, 2), (-1, 2), (-2,))),
    CnfFormula(3, ((1, 3), (-1, 2, -3))),
    CnfFormula(3, ((-3,), (3,))),
    CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3))),
]


def ub_scan_reference(inst, spec):
    """The upper distances, range check and realisation count of the ub
    verifier by an unpruned scan: every realisation of the variable curve
    through the public precise metrics, then the imprecise model's interior
    samples t = 1/6 ... 5/6, none of them through the oracle."""
    rv = inst.v.as_precise()
    values = [
        (frechet_value(ru, rv), discrete_frechet(ru, rv))
        for ru in enumerate_realisations(inst.u, spec)
    ]
    fs, ds = zip(*values)
    range_ok = all(1 <= min(xs) and max(xs) <= F(3, 2) for xs in (fs, ds))
    for k in range(1, 6) if inst.model == "imprecise" else ():
        ru = [
            p.x if isinstance(p, Precise) else p.lo + F(k, 6) * (p.hi - p.lo)
            for p in inst.u.points
        ]
        if max(frechet_value(ru, rv), discrete_frechet(ru, rv)) > F(3, 2):
            range_ok = False
    distances = {"frechet_upper": max(fs), "discrete_upper": max(ds)}
    return distances, range_ok, len(values)


@pytest.mark.parametrize("model", ["indecisive", "imprecise"])
@pytest.mark.parametrize("resolution", [2, 3])
def test_ub_verify_agrees_with_bound_oracle(model, resolution):
    """The verifier reads its distances and range from bound_oracle's
    pruned scans; ub_scan_reference recomputes them without the oracle's
    pruning or bracketed integer cores."""
    spec = EnumerationSpec(resolution=resolution)
    for f in UB_TWO_SIDED:
        inst = build_ub_sat(f, model=model)
        rep = verify_reduction(inst, spec)
        # an interval's candidates include both its ends, so the imprecise
        # scan covers the indecisive realisations
        assert rep.hull_ok is (True if model == "imprecise" else None), f
        distances, range_ok, count = ub_scan_reference(inst, spec)
        assert rep.distances == distances, f
        assert rep.range_ok == range_ok, f
        assert rep.realisations == count, f


def test_ub_verify_upper_side_skips_pairs_the_walk_settles(monkeypatch):
    """On the imprecise instance of the three-variable, three-clause
    formula, the cores are asked "> best" (upper scans) or "> 1.5"
    (interior samples) on fewer than half of the 2 x 7 upper-scan pairs
    after the first and 2 x 5 samples, because a coupling walk settles the
    others; with the walk switched off the report is the same."""
    inst = build_ub_sat(CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3))), model="imprecise")
    spec = EnumerationSpec()
    asked = 2 * (enumeration_size(inst.u, spec) - 1) + 2 * 5
    calls = []
    for variant in ("frechet", "discrete"):
        core, factor = precise.CORES[variant]

        def counting(a, b, lo=-1, hi=None, core=core):
            calls.append((lo, hi))
            return core(a, b, lo=lo, hi=hi)

        monkeypatch.setitem(precise.CORES, variant, (counting, factor))
    rep = verify_reduction(inst, spec)
    upper = [c for c in calls if c[0] >= 0 and c[1] is None]
    assert asked == 24 and 2 * len(upper) < asked, len(upper)
    monkeypatch.setattr(oracle, "coupled", lambda *_: False)
    monkeypatch.setattr(reductions, "coupled", lambda *_: False)
    assert verify_reduction(inst, spec) == rep


def test_ub_verify_reports_an_interior_sample_above_the_ceiling():
    """Widening the one interval vertex [-3/2, 0] of the imprecise
    single-variable instance to [-3/2, 40] lifts every interior sample
    above 1.5: range_ok fails, and each sample gets a note with both
    distances, the first at t = 1/6."""
    inst = build_ub_sat(CnfFormula(1, ((1,),)), "imprecise")
    points = tuple(
        dataclasses.replace(p, hi=F(40)) if isinstance(p, Interval) else p for p in inst.u.points
    )
    assert sum(isinstance(p, Interval) for p in points) == 1
    rep = verify_reduction(dataclasses.replace(inst, u=dataclasses.replace(inst.u, points=points)))
    assert not rep.range_ok and not rep.ok
    samples = [note for note in rep.notes if note.startswith("interior sample")]
    assert len(samples) == 5
    assert samples[0] == "interior sample t=1/6 exceeds 1.5: frechet 23/12, discrete 23/12"


# --- weak-discrete construction -----------------------------------------------


def test_weak_indecisive_frozen():
    inst = build_weak_discrete_indecisive(CnfFormula(1, ((1,),)))
    assert point_repr(inst.u) == "0 {14,16} 0"
    assert point_repr(inst.v) == "0 15 13 15 0"
    assert inst.delta == 1 and inst.gap_value == 3
    assert (len(inst.u), len(inst.v)) == inst.expected_lengths


def test_weak_imprecise_frozen():
    inst = build_weak_discrete_imprecise(CnfFormula(1, ((1,),)))
    assert point_repr(inst.u) == "0 10 14 16 20 [14,16] 10 14 16 20 30"
    assert point_repr(inst.v) == "0 10 15 17 20 17 15 10 15 17 20 30"
    assert inst.delta == 1 and inst.gap_value == 2
    c, v = len(inst.effective_formula.clauses), inst.effective_formula.num_vars
    assert len(inst.u) == 5 * v + 6
    assert len(inst.v) == c * (3 * v + 9)


def test_weak_imprecise_pads_even_clause_count():
    inst = build_weak_discrete_imprecise(CnfFormula(2, ((1, 2), (-1, 2))))
    eff = inst.effective_formula.clauses
    assert len(eff) == 3
    assert eff[-1] == (1, -1, 1)
    assert any("tautology" in n for n in inst.notes)
    # padding preserves satisfiability
    assert satisfiable(inst.formula) == satisfiable(inst.effective_formula)


def test_weak_indecisive_lengths_formula():
    for formula in (
        CnfFormula(2, ((1, 2),)),
        CnfFormula(3, ((1, -2, 3), (2, -3))),
    ):
        inst = build_weak_discrete_indecisive(formula)
        c, v = len(inst.effective_formula.clauses), inst.effective_formula.num_vars
        assert len(inst.u) == v + 2
        assert len(inst.v) == v * c + v + c + 2


def test_weak_verify_roundtrip():
    sat_rep = verify_reduction(build_weak_discrete_indecisive(CnfFormula(1, ((1,),))))
    assert sat_rep.sat and sat_rep.ok
    assert sat_rep.distances == {"discrete_weak_lower": F(1)}
    assert sat_rep.adjacency_used == 8
    unsat_rep = verify_reduction(
        build_weak_discrete_indecisive(CnfFormula(1, ((1,), (-1,))))
    )
    assert not unsat_rep.sat and unsat_rep.ok
    assert unsat_rep.distances["discrete_weak_lower"] > 1


def test_weak_imprecise_verify():
    rep = verify_reduction(build_weak_discrete_imprecise(CnfFormula(1, ((1,),))))
    assert rep.sat and rep.ok
    assert rep.distances == {"discrete_weak_lower": F(1)}
    assert rep.adjacency_used == 8


def _weak_instance(formula, u, v):
    """A hand-built weak-discrete instance of precise curves u and v."""
    return ReductionInstance(
        UncertainCurve(tuple(Precise(F(x)) for x in u)), UncertainCurve(tuple(Precise(F(y)) for y in v)),
        delta=F(1), gap_value=F(2), kind="weak-discrete", model="indecisive",
        expected_lengths=(len(u), len(v)), formula=formula, effective_formula=formula,
    )


def test_weak_verify_falls_back_to_adjacency_4():
    """On the unsatisfiable (x1)(-x1) with u = <0, 3> and v = <1, 2>, the
    diagonal pairs give a lower bound of 1 at adjacency 8, which claims
    satisfiability; at adjacency 4 every path passes a pair 2 apart, so
    the equivalence holds there only, and the report says so."""
    rep = verify_reduction(_weak_instance(CnfFormula(1, ((1,), (-1,))), (0, 3), (1, 2)))
    assert not rep.sat and rep.equivalence_ok and rep.range_ok
    assert rep.distances == {"discrete_weak_lower": F(1), "discrete_weak_lower_adj4": F(2)}
    assert rep.adjacency_used == 4
    assert rep.notes == ("equivalence holds under 4-adjacency but not 8-adjacency",)


def test_weak_verify_fails_under_both_adjacencies():
    """On the satisfiable (x1) with u = <0> and v = <2>, both adjacencies
    give 2, not 1: the report keeps adjacency 8 and says both fail."""
    rep = verify_reduction(_weak_instance(CnfFormula(1, ((1,),)), (0,), (2,)))
    assert rep.sat and not rep.equivalence_ok and not rep.ok
    assert rep.distances == {"discrete_weak_lower": F(2), "discrete_weak_lower_adj4": F(2)}
    assert rep.adjacency_used == 8
    assert rep.notes == ("equivalence fails under both adjacencies",)


def test_non_3sat_rejected_by_weak_builders():
    fat = CnfFormula(4, ((1, 2, 3, 4),))
    with pytest.raises(ValueError):
        build_weak_discrete_indecisive(fat)
    with pytest.raises(ValueError):
        build_weak_discrete_imprecise(fat)


def test_instance_invariants_guarded():
    inst = build_ub_sat(CnfFormula(1, ((1,),)))
    with pytest.raises(ValueError):
        ReductionInstance(
            inst.u,
            inst.v,
            delta=F(2),
            gap_value=F(3, 2),
            kind=inst.kind,
            model=inst.model,
            expected_lengths=inst.expected_lengths,
            formula=inst.formula,
            effective_formula=inst.effective_formula,
        )


# --- 2D lift -------------------------------------------------------------------


def test_lift_to_2d_shape():
    inst = build_ub_sat(CnfFormula(1, ((1,),)))
    du, dv = lift_to_2d(inst.u, inst.v, F(1000))
    for doc, curve in ((du, inst.u), (dv, inst.v)):
        assert doc["dimension"] == 2
        assert len(doc["points"]) == 2 * len(curve) - 1
        # odd positions are the sentinel spikes
        for k, pt in enumerate(doc["points"]):
            if k % 2 == 1:
                assert pt == {"type": "precise", "x": "0", "y": "1000"}
            else:
                assert pt["y"] == "0"


def test_lift_to_2d_sentinel_floor():
    inst = build_ub_sat(CnfFormula(1, ((1,),)))
    top = max(abs(e) for e in inst.u.all_endpoints() + inst.v.all_endpoints())
    with pytest.raises(ValueError):
        lift_to_2d(inst.u, inst.v, 10 * top)
    lift_to_2d(inst.u, inst.v, 10 * top + 1)


# --- instance size ---------------------------------------------------------------


def test_instance_size_counts_the_scalars_written():
    """check_instance_size counts, from the formula alone, exactly the
    positions the built instance holds, for both kinds and both models, on
    random formulas with single clauses, even and odd clause counts and
    repeated literals."""
    rng = random.Random(2118)
    builders = {
        ("ub-sat", "indecisive"): lambda f: build_ub_sat(f, "indecisive"),
        ("ub-sat", "imprecise"): lambda f: build_ub_sat(f, "imprecise"),
        ("weak-discrete", "indecisive"): build_weak_discrete_indecisive,
        ("weak-discrete", "imprecise"): build_weak_discrete_imprecise,
    }
    built = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 5))
        ]
        f = CnfFormula(n, tuple(clauses))
        for (kind, model), build in builders.items():
            try:
                inst = build(f)
            except ValueError:
                continue  # a tautological clause, which the ub kind rejects
            written = sum(len(p.endpoints()) for c in (inst.u, inst.v) for p in c.points)
            assert check_instance_size(f, kind, model) == written, (f, kind, model)
            built += 1
    assert built >= 400
