"""Uncertain weak-Frechet minimisation against brute-force grids."""

import itertools
import random
from fractions import Fraction as F

import pytest

import lbfrechet.weak_uncertain as wu
from lbfrechet.model import (
    Interval,
    Precise,
    UncertainCurve,
    make_interval,
    make_set,
    reach_bound,
    scale_to_ints,
)
from lbfrechet.oracle import CapExceeded
from lbfrechet.precise import r_dp, weak_frechet_1d
from lbfrechet.weak_uncertain import (
    DEFAULT_STATE_CAP,
    _Budget,
    _extremum_slots,
    _int_positions,
    _weak_dp,
    candidate_deltas,
    candidate_positions,
    wfr_min_decide,
    wfr_min_value,
)

from oracles import min_weak_over_grid, wfr_min_value_linear


def ic(*spans):
    pts = []
    for s in spans:
        if isinstance(s, tuple):
            pts.append(make_interval(F(s[0]), F(s[1])))
        else:
            pts.append(Precise(F(s)))
    return UncertainCurve(pts)


def random_weak_pair(rng, den_u=1, den_v=1):
    """Up to three vertices per curve, one of them an interval, all at
    k/den of the curve."""

    def rnd_curve(den):
        pts = []
        n = rng.randint(1, 3)
        slot = rng.randrange(n)
        for k in range(n):
            if k == slot:
                lo = rng.randint(-2 * den, den)
                pts.append(make_interval(F(lo, den), F(lo + rng.randint(1, 2 * den), den)))
            else:
                pts.append(Precise(F(rng.randint(-2 * den, 2 * den), den)))
        return UncertainCurve(pts)

    return rnd_curve(den_u), rnd_curve(den_v)


def random_mixed_curve(rng, n_min, n_max, shift=0):
    """n_min..n_max vertices, each a precise point, an interval or a
    two-element set, with small integer endpoints (moved up by shift) so
    that ties are common."""
    pts = []
    for _ in range(rng.randint(n_min, n_max)):
        lo = rng.randint(-2, 3) + shift
        kind = rng.random()
        if kind < 0.4:
            pts.append(Precise(F(lo)))
        elif kind < 0.8:
            pts.append(make_interval(F(lo), F(lo + rng.randint(1, 2))))
        else:
            pts.append(make_set([F(lo), F(lo + rng.randint(1, 3))]))
    return UncertainCurve(pts)


def test_candidate_deltas_simple_pair():
    u = ic((0, 1))
    v = ic((2, 3))
    assert candidate_deltas(u, v) == [F(0), F(1, 2), F(1), F(2), F(3)]
    assert wfr_min_value(u, v) == F(1)


def test_candidate_deltas_contains_zero_and_sorted():
    u = ic((0, 2), 1)
    v = ic((1, 3))
    out = candidate_deltas(u, v)
    assert out[0] == 0
    assert out == sorted(set(out))


def test_candidate_positions_validation():
    u = ic((0, 1))
    with pytest.raises(ValueError):
        candidate_positions(u, u, F(-1))


def test_candidate_positions_structure():
    u = ic((0, 1), 5)
    v = UncertainCurve([make_set([F(0), F(2)])])
    pu, pv = candidate_positions(u, v, F(1, 2))
    assert len(pu) == 2 and len(pv) == 1
    # precise vertices pin to their value, finite sets enumerate exactly
    assert pu[1] == [F(5)]
    assert pv[0] == [F(0), F(2)]
    # interval grids keep their own endpoints and stay in range
    assert pu[0][0] == F(0) and pu[0][-1] == F(1)
    assert all(F(0) <= x <= F(1) for x in pu[0])


def test_candidate_positions_match_their_definition():
    """The grids built on ints equal the definition on Fractions, for
    curves and a delta that each carry their own prime denominator."""
    rng = random.Random(6042)
    for _ in range(40):
        pu, pv, pd = rng.sample((2, 3, 5, 7, 11), 3)
        u, v = random_weak_pair(rng, pu, pv)
        delta = F(rng.randint(0, 3 * pd), pd)
        base = set(u.all_endpoints()) | set(v.all_endpoints())
        k_max = len(u) + len(v)
        grid = {e + k * delta for e in base for k in range(-k_max, k_max + 1)}

        def per_vertex(c):
            return [
                sorted(x for x in grid if p.lo <= x <= p.hi) if isinstance(p, Interval) else [p.x]
                for p in c.points
            ]

        assert candidate_positions(u, v, delta) == (per_vertex(u), per_vertex(v))


def test_decide_monotone_in_delta():
    u = ic((0, 1), (3, 4))
    v = ic((1, 2), (2, 5))
    deltas = candidate_deltas(u, v)
    flags = [wfr_min_decide(u, v, d) for d in deltas]
    # once true, stays true
    assert flags == sorted(flags)
    value = wfr_min_value(u, v)
    assert value in deltas
    for d, flag in zip(deltas, flags):
        assert flag == (d >= value)


def oracle_min(u, v):
    """Brute-force minimum over every candidate grid (one per candidate
    delta); the grids carry the optimum, so the overall min is exact."""
    best = None
    for d in candidate_deltas(u, v):
        pu, pv = candidate_positions(u, v, d)
        flat_u = sorted({x for vals in pu for x in vals})
        flat_v = sorted({x for vals in pv for x in vals})
        got = min_weak_over_grid(u, v, flat_u, flat_v)
        if best is None or got < best:
            best = got
    return best


def test_value_matches_grid_oracle():
    rng = random.Random(6040)
    for _ in range(12):
        u, v = random_weak_pair(rng)
        got = wfr_min_value(u, v)
        assert got == oracle_min(u, v), (u, v)
    # endpoints k/p: the scaled grid must hold every curve's denominator
    for _ in range(8):
        u, v = random_weak_pair(rng, *rng.sample((2, 3, 5, 7), 2))
        got = wfr_min_value(u, v)
        assert type(got) is F
        assert got == oracle_min(u, v), (u, v)


def test_value_on_all_precise_pair():
    a = [F(0), F(3), F(1)]
    b = [F(0), F(2)]
    u = UncertainCurve([Precise(x) for x in a])
    v = UncertainCurve([Precise(x) for x in b])
    assert wfr_min_value(u, v) == weak_frechet_1d(a, b)


def test_finite_sets_enumerated_exactly():
    u = UncertainCurve([make_set([F(0), F(10)])])
    v = ic((4, 6))
    # choosing 10 never helps; the optimum sits at |4 - 0|
    assert wfr_min_value(u, v) == F(4)


def test_cap_exceeded():
    u = ic(*[(0, 1)] * 4)
    v = ic(*[(0, 1)] * 4)
    with pytest.raises(CapExceeded):
        wfr_min_decide(u, v, F(1, 2), cap=3)
    with pytest.raises(CapExceeded):
        wfr_min_value(u, v, cap=3)


def grid_span(*grids):
    """Largest minus smallest position: a d that prunes no _weak_dp state."""
    values = [x for grid in grids for xs in grid for x in xs]
    return max(values) - min(values)


def test_extremum_filter_drops_only_empty_tuples():
    """Every extremum-index tuple the decision skips has an empty forward
    table even without delta pruning (d is the grid's span), so skipping
    it changes no answer."""
    rng = random.Random(6043)
    dropped = 0
    for _ in range(120):
        u, v = random_mixed_curve(rng, 1, 4), random_mixed_curve(rng, 1, 4)
        for delta in (F(0), F(1, 2), F(1)):
            _, _, pos_u, pos_v = _int_positions(u, v, delta)
            u_mins, u_maxs = _extremum_slots(pos_u)
            v_mins, v_maxs = _extremum_slots(pos_v)
            m, n = len(pos_u), len(pos_v)
            for i_min, i_max, j_min, j_max in itertools.product(
                range(1, m + 1), range(1, m + 1), range(1, n + 1), range(1, n + 1)
            ):
                if i_min in u_mins and i_max in u_maxs and j_min in v_mins and j_max in v_maxs:
                    continue
                dropped += 1
                table = _weak_dp(
                    pos_u, pos_v, (i_min, i_max), (j_min, j_max), grid_span(pos_u, pos_v),
                    budget=_Budget(DEFAULT_STATE_CAP),
                )
                assert not table, (
                    u, v, delta, (i_min, i_max, j_min, j_max),
                )
    assert dropped >= 1000


def test_value_bisection_matches_linear_scan():
    """Bisecting the candidate deltas finds the same value as trying them
    from the bottom, on pairs of 2-4 mixed vertices."""
    rng = random.Random(6044)
    for _ in range(200):
        u, v = random_mixed_curve(rng, 2, 4), random_mixed_curve(rng, 2, 4)
        assert wfr_min_value(u, v) == wfr_min_value_linear(u, v), (u, v)


def test_value_bisection_from_the_reach_bound_matches_linear_scan():
    """The bisection starts at the reach bound L, below which no
    realisation pair is within delta; on 200 pairs of 1-4 and 2-4 mixed
    vertices, the second curve moved up by 0-3, it finds the bottom-up
    scan's value, both when the value is L and when it lies above."""
    rng = random.Random(6046)
    kinds = {"at": 0, "above": 0}
    for t in range(200):
        u, v = random_mixed_curve(rng, 1, 4), random_mixed_curve(rng, 2, 4, shift=t % 4)
        reach = reach_bound([p.span() for p in u.points], [p.span() for p in v.points])
        got = wfr_min_value(u, v)
        assert got == wfr_min_value_linear(u, v), (u, v)
        assert got >= reach
        kinds["at" if got == reach else "above"] += 1
    assert kinds["at"] >= 150 and kinds["above"] >= 10, kinds


def test_value_probes_the_reach_bound_first(monkeypatch):
    """The first probe is the reach bound L (model.reach_bound), a
    candidate no realisation pair beats: overlapping regions have L = 0 and
    reach it in one decision, and a pair whose value is L > 0 takes one
    decision too."""
    probes = []

    def counted(u, v, delta, **kwargs):
        probes.append(delta)
        return wfr_min_decide(u, v, delta, **kwargs)

    monkeypatch.setattr(wu, "wfr_min_decide", counted)
    u, v = ic((0, 2), (1, 3), (0, 2)), ic((1, 3), (0, 2))
    assert wfr_min_value(u, v) == 0 and probes == [0]
    probes.clear()
    # L = 3: the first vertices 0 and [3, 4], and the last 2 and [5, 6]
    u, v = ic(0, 2), ic((3, 4), (5, 6))
    assert wfr_min_value(u, v) == 3 and probes == [3]


def test_value_lists_candidates_only_when_the_reach_bound_fails(monkeypatch):
    """A feasible reach bound is the value, and candidate_deltas is never
    called; an infeasible one is followed by bisection over the listed
    candidates."""
    listed = []

    def listing(u, v):
        listed.append((u, v))
        return candidate_deltas(u, v)

    monkeypatch.setattr(wu, "candidate_deltas", listing)
    for u, v, want in (
        (ic((0, 2), (1, 3), (0, 2)), ic((1, 3), (0, 2)), 0),
        (ic(0, 2), ic((3, 4), (5, 6)), 3),
    ):
        assert wfr_min_value(u, v) == want and listed == []
    u, v = ic(3, (4, 6), 2), ic((2, 4), (1, 3))
    assert wfr_min_value(u, v) == F(1, 2) and listed == [(u, v)]


def test_value_probes_frozen(monkeypatch):
    """The decisions wfr_min_value makes on a pair whose reach bound 0 is
    infeasible, in order, frozen: 0, then the upper midpoints of the
    candidates above it."""
    probes = []

    def counted(u, v, delta, **kwargs):
        probes.append(delta)
        return wfr_min_decide(u, v, delta, **kwargs)

    monkeypatch.setattr(wu, "wfr_min_decide", counted)
    assert wfr_min_value(ic(3, (4, 6), 2), ic((2, 4), (1, 3))) == F(1, 2)
    assert probes == [0, F(2, 3), F(1, 3), F(1, 2), F(2, 5)]


def test_cap_is_one_budget_per_decision(monkeypatch):
    """The cap bounds the states summed over all DP runs of a decision:
    a cap above every single run but below their sum is exceeded."""
    u = ic((0, 1), (2, 3), (0, 1))
    v = ic((1, 2), (0, 1), (2, 3))
    delta = F(1, 3)
    runs = []

    def counted(*args, budget, **kwargs):
        before = budget.left
        try:
            return _weak_dp(*args, budget=budget, **kwargs)
        finally:
            runs.append(before - budget.left)

    monkeypatch.setattr(wu, "_weak_dp", counted)
    assert not wfr_min_decide(u, v, delta)
    assert len(runs) >= 2 and max(runs) < 400 < sum(runs)
    monkeypatch.undo()
    with pytest.raises(CapExceeded, match="cap 400"):
        wfr_min_decide(u, v, delta, cap=400)
    # a value makes several decisions, each with a fresh budget
    assert wfr_min_value(u, v, cap=sum(runs)) == F(1)


def test_states_per_run_frozen(monkeypatch):
    """budget.left after every _weak_dp run of a decision, frozen: the
    cap counts the states of every table.  Two seeded pairs are decided at
    their value (feasible) and at the candidate below it (infeasible),
    with a cap of 2000.  A run that exceeds the cap stops filling its cell
    once that cell alone passes what is left, so how far below 0 it ends
    depends on the order the cell's states are visited in: for the capped
    decision, only the runs before it are frozen."""
    lefts = []

    def counted(*args, budget, **kwargs):
        try:
            return _weak_dp(*args, budget=budget, **kwargs)
        finally:
            lefts.append(budget.left)

    monkeypatch.setattr(wu, "_weak_dp", counted)
    rng = random.Random(6049)
    frozen = (
        (
            (F(2), True, [1988, 1976]),
            (F(3, 2), False, [1990, 1990, 1979, 1979, 1969, 1969, 1958, 1958]),
        ),
        (
            (F(4), True, [1648, 1596]),
            (F(3), False, [1736, 1736, 1568, 1568, 1376, 1376, 1178, 1178, 1052, 1052, 908, 908]),
        ),
    )
    for decisions in frozen:
        u, v = random_mixed_curve(rng, 3, 4), random_mixed_curve(rng, 3, 4, shift=1)
        for delta, want, want_lefts in decisions:
            lefts.clear()
            assert wfr_min_decide(u, v, delta, cap=2000) is want
            assert lefts == want_lefts, (u, v, delta)
    lefts.clear()
    with pytest.raises(CapExceeded, match="cap 400"):
        wfr_min_decide(ic((0, 1), (2, 3), (0, 1)), ic((1, 2), (0, 1), (2, 3)), F(1, 3), cap=400)
    assert lefts[:-1] == [375, 271, 271, 196] and lefts[-1] < 0


def brute_min_r(pos_u, pos_v, ext_u, ext_v):
    """min r_dp over grid realisations whose extrema sit at the given
    (index of min, index of max, min, max) of each curve, or infinity."""

    def respects(r, ext):
        t_min, t_max, lo, hi = ext
        return r[t_min - 1] == min(r) == lo and r[t_max - 1] == max(r) == hi

    best = float("inf")
    for ra in itertools.product(*pos_u):
        if not respects(ra, ext_u):
            continue
        for rb in itertools.product(*pos_v):
            if respects(rb, ext_v):
                best = min(best, r_dp(list(ra), list(rb)))
    return best


def pinned_dp(pos_u, pos_v, ext_u, ext_v, d=None):
    """(s, whether the pinned image is in the table) from one _weak_dp run
    on the grids and pins scaled to ints by s, with each extremum's domain
    pinned to its value; d is scaled too and defaults to the grid's span,
    which prunes nothing."""
    (i_min, i_max, *x_ext), (j_min, j_max, *y_ext) = ext_u, ext_v
    s, scaled = scale_to_ints(*pos_u, *pos_v, (*x_ext, *y_ext))
    x_min, x_max, y_min, y_max = scaled[-1]
    grid_u, grid_v = scaled[: len(pos_u)], scaled[len(pos_u) : -1]
    table = _weak_dp(
        grid_u,
        grid_v,
        (i_min, i_max),
        (j_min, j_max),
        grid_span(grid_u, grid_v) if d is None else d,
        budget=_Budget(DEFAULT_STATE_CAP),
        pins=(((x_min,), (x_max,)), ((y_min,), (y_max,))),
    )
    return s, ((x_min, x_max), (y_min, y_max)) in table


def assert_pinned_dp_reaches(pos_u, pos_v, ext_u, ext_v, want):
    """The pinned image is in the unpruned table exactly when brute_min_r
    is finite; then it stays at the scaled minimum d and is gone at d - 1."""
    s, present = pinned_dp(pos_u, pos_v, ext_u, ext_v)
    assert present == (want != float("inf")), (pos_u, pos_v, ext_u, ext_v)
    if present:
        d = int(want * s)
        assert d == want * s
        assert pinned_dp(pos_u, pos_v, ext_u, ext_v, d) == (s, True)
        assert pinned_dp(pos_u, pos_v, ext_u, ext_v, d - 1) == (s, False)
    return present


def test_pinned_dp_brute_force_agreement():
    u = ic((0, 2))
    v = ic((1, 3), 2)
    pos_u, pos_v = candidate_positions(u, v, F(1))
    ext_u, ext_v = (1, 1, F(0), F(0)), (1, 2, F(1), F(2))
    assert brute_min_r(pos_u, pos_v, ext_u, ext_v) == 1
    assert assert_pinned_dp_reaches(pos_u, pos_v, ext_u, ext_v, 1)
    # a pin with a denominator the curves lack: no realisation holds it
    for pin in (F(1, 7), F(-1, 3)):
        assert not assert_pinned_dp_reaches(pos_u, pos_v, (1, 1, pin, pin), ext_v, float("inf"))
    # endpoints k/p, deltas with another prime, and pins that are either
    # grid values or carry a denominator the curves lack (no realisation
    # holds them, so the minimum is infinity)
    rng = random.Random(6041)
    finite = 0
    for _ in range(60):
        pu, pv, pd, pin = rng.sample((2, 3, 5, 7, 11), 4)
        u, v = random_weak_pair(rng, pu, pv)
        delta = F(rng.randint(1, 3 * pd), pd)
        pos_u, pos_v = candidate_positions(u, v, delta)

        def extrema(pos):
            # the extrema of a random grid realisation, one value sometimes
            # swapped for an odd multiple of 1/pin
            r = [rng.choice(xs) for xs in pos]
            ext = [r.index(min(r)) + 1, r.index(max(r)) + 1, min(r), max(r)]
            if rng.random() < 0.3:
                k = rng.randrange(2, 4)
                ext[k] = F(2 * rng.randint(-3 * pin, 3 * pin) + 1, pin)
                ext[2:] = sorted(ext[2:])
            return ext

        ext_u, ext_v = extrema(pos_u), extrema(pos_v)
        want = brute_min_r(pos_u, pos_v, ext_u, ext_v)
        finite += assert_pinned_dp_reaches(pos_u, pos_v, ext_u, ext_v, want)
    assert finite >= 10
