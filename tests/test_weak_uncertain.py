"""Uncertain weak-Frechet minimisation against brute-force grids."""

import itertools
import random
from fractions import Fraction as F

import pytest

from lbfrechet.model import Interval, Precise, UncertainCurve, make_interval, make_set
from lbfrechet.oracle import CapExceeded
from lbfrechet.precise import r_dp, weak_frechet_1d
from lbfrechet.weak_uncertain import (
    RespectConstraint,
    candidate_deltas,
    candidate_positions,
    min_r_constrained,
    wfr_min_decide,
    wfr_min_value,
)

from oracles import min_weak_over_grid


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


def test_min_r_constrained_validates_indices():
    u = ic((0, 1), (2, 3))
    v = ic((0, 1))
    pos = candidate_positions(u, v, F(1))
    with pytest.raises(ValueError):
        min_r_constrained(
            u, v, RespectConstraint(3, 1, 1, 1, F(0), F(3), F(0), F(1)), pos
        )
    with pytest.raises(ValueError):
        RespectConstraint(1, 1, 1, 1, F(2), F(1), F(0), F(1))


def brute_min_r(pos_u, pos_v, rc):
    """min r_dp over grid realisations whose extrema sit at rc's indices
    with rc's values, or infinity."""

    def respects(r, t_min, t_max, lo, hi):
        return r[t_min - 1] == min(r) == lo and r[t_max - 1] == max(r) == hi

    best = float("inf")
    for ra in itertools.product(*pos_u):
        if not respects(ra, rc.i_min, rc.i_max, rc.x_min, rc.x_max):
            continue
        for rb in itertools.product(*pos_v):
            if respects(rb, rc.j_min, rc.j_max, rc.y_min, rc.y_max):
                best = min(best, r_dp(list(ra), list(rb)))
    return best


def test_min_r_constrained_brute_force_agreement():
    u = ic((0, 2))
    v = ic((1, 3), 2)
    pos_u, pos_v = candidate_positions(u, v, F(1))
    rc = RespectConstraint(1, 1, 1, 2, F(0), F(0), F(1), F(2))
    got = min_r_constrained(u, v, rc, (pos_u, pos_v))
    assert got == brute_min_r(pos_u, pos_v, rc) == 1
    # a pin with a denominator the curves lack: no realisation holds it
    for pin in (F(1, 7), F(-1, 3)):
        rc = RespectConstraint(1, 1, 1, 2, pin, pin, F(1), F(2))
        assert min_r_constrained(u, v, rc, (pos_u, pos_v)) == float("inf")
    # endpoints k/p, deltas with another prime, and pins that are either
    # grid values or carry a denominator the curves lack (no realisation
    # holds them, so the answer is infinity)
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

        (i_min, i_max, x_min, x_max), (j_min, j_max, y_min, y_max) = extrema(pos_u), extrema(pos_v)
        rc = RespectConstraint(i_min, i_max, j_min, j_max, x_min, x_max, y_min, y_max)
        got = min_r_constrained(u, v, rc, (pos_u, pos_v))
        want = brute_min_r(pos_u, pos_v, rc)
        assert got == want, (u, v, rc)
        if got != float("inf"):
            finite += 1
            assert type(got) is F
    assert finite >= 10
