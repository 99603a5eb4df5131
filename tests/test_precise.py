"""Precise-curve metrics against hand-frozen values and independent oracles."""

import random
from fractions import Fraction as F
from functools import partial
from math import lcm

import pytest

from lbfrechet import precise
from lbfrechet.model import coupled, growing_curve, scale_to_ints
from lbfrechet.precise import (
    CORES,
    _discrete_frechet,
    _discrete_weak,
    _frechet_value,
    _weak,
    discrete_frechet,
    discrete_weak,
    frechet_decide,
    frechet_value,
    r_dp,
    rm_dp,
    weak_frechet_1d,
)

from oracles import (
    discrete_frechet_recursive,
    discrete_weak_bfs,
    frechet_decide_reference,
    frechet_value_reference,
    weak_frechet_cells_decide,
    weak_frechet_cells_value,
)


def fr(xs):
    return [F(x) for x in xs]


# (a, b, discrete, weak8, weak4, frechet, weak_continuous)
TABLE = [
    ([0], [0], 0, 0, 0, 0, 0),
    ([0], [3], 3, 3, 3, 3, 3),
    ([0, 4], [0, 4], 0, 0, 4, 0, 0),
    ([0, 4], [4, 0], 4, 4, 4, 4, 4),
    ([0, 6, 0], [0, 6], 6, 6, 6, 6, 6),
    ([0, 10, 0, 10], [0, 10], 10, 0, 10, 5, 0),
    ([0, 5, 1, 6], [0, 6], 5, 1, 5, 2, 0),
    ([2, -3, 4], [0, 0, 0], 4, 4, 4, 4, 4),
    ([F(1, 2), F(7, 3)], [F(-1, 6), F(5, 2), F(1, 3)], 2, 2, 2, 2, 2),
    ([1, 1, 1, 1], [1], 0, 0, 0, 0, 0),
    ([0, 8, -2, 9], [1, 7, -1, 8], 1, 1, 10, 1, 1),
    ([-5, 5, -5], [5, -5, 5], 10, 10, 10, 10, 10),
]


@pytest.mark.parametrize("a,b,disc,w8,w4,cont,wcont", TABLE)
def test_metric_table(a, b, disc, w8, w4, cont, wcont):
    a, b = fr(a), fr(b)
    assert discrete_frechet(a, b) == F(disc)
    assert discrete_weak(a, b, adjacency=8) == F(w8)
    assert discrete_weak(a, b) == F(w8)
    assert discrete_weak(a, b, adjacency=4) == F(w4)
    assert frechet_value(a, b) == F(cont)
    assert weak_frechet_1d(a, b) == F(wcont)


@pytest.mark.parametrize("a,b,disc,w8,w4,cont,wcont", TABLE)
def test_metric_table_symmetry(a, b, disc, w8, w4, cont, wcont):
    a, b = fr(a), fr(b)
    assert discrete_frechet(b, a) == F(disc)
    assert discrete_weak(b, a, adjacency=4) == F(w4)
    assert frechet_value(b, a) == F(cont)
    assert weak_frechet_1d(b, a) == F(wcont)


def test_discrete_weak_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        discrete_weak(fr([0]), fr([0]), adjacency=6)


def test_empty_curves_rejected():
    for fn in (discrete_frechet, frechet_value, weak_frechet_1d, r_dp, rm_dp):
        with pytest.raises(ValueError):
            fn([], fr([0]))
        with pytest.raises(ValueError):
            fn(fr([0]), [])


def test_frechet_decide_negative_delta():
    with pytest.raises(ValueError):
        frechet_decide(fr([0]), fr([0]), F(-1))


def random_curve(rng, max_len=7, lo=-5, hi=5, den=1):
    """Vertices k/den in [lo, hi].  With den > 1 one vertex may repeat,
    giving a zero-length edge; descending edges come with any draw."""
    n = rng.randint(1, max_len)
    xs = [F(rng.randint(lo * den, hi * den), den) for _ in range(n)]
    if den > 1 and rng.random() < 0.5:
        k = rng.randrange(n)
        xs.insert(k, xs[k])
    return xs


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def random_pair(rng, k, max_len=7):
    """The k-th test pair: integer vertices on even k; on odd k distinct
    small prime denominators for a, b and delta, so that the scaling step
    has work to do.  Returns (a, b, delta denominator)."""
    if k % 2 == 0:
        return random_curve(rng, max_len), random_curve(rng, max_len), rng.randint(1, 3)
    pa, pb, pd = rng.sample(SMALL_PRIMES, 3)
    return random_curve(rng, max_len, den=pa), random_curve(rng, max_len, den=pb), pd


def test_random_agreement_with_oracles():
    rng = random.Random(1203)
    for _ in range(250):
        a = random_curve(rng)
        b = random_curve(rng)
        assert discrete_frechet(a, b) == discrete_frechet_recursive(a, b)
        assert discrete_weak(a, b, adjacency=8) == discrete_weak_bfs(a, b, 8)
        assert discrete_weak(a, b, adjacency=4) == discrete_weak_bfs(a, b, 4)
        assert weak_frechet_1d(a, b) == weak_frechet_cells_value(a, b)
    for k in range(400):
        a, b, _ = random_pair(rng, 2 * k + 1)
        assert discrete_frechet(a, b) == discrete_frechet_recursive(a, b)
        assert discrete_weak(a, b, adjacency=8) == discrete_weak_bfs(a, b, 8)
        assert discrete_weak(a, b, adjacency=4) == discrete_weak_bfs(a, b, 4)
        assert weak_frechet_1d(a, b) == weak_frechet_cells_value(a, b)


def test_frechet_value_boundary_is_exact():
    rng = random.Random(77)
    eps = F(1, 997)
    # distinct candidates with denominators dividing 2*13*11 lie more
    # than eps apart, so v - eps is below the next smaller one
    for k in range(300):
        a, b, _ = random_pair(rng, k, max_len=6)
        v = frechet_value(a, b)
        assert frechet_decide(a, b, v)
        assert frechet_decide_reference(a, b, v)
        if v > 0:
            assert not frechet_decide(a, b, v - eps)
            assert not frechet_decide_reference(a, b, v - eps)


def test_frechet_decide_matches_reference():
    rng = random.Random(78)
    for k in range(400):
        a, b, den = random_pair(rng, k, max_len=6)
        d = F(rng.randint(0, 10 * den), den)
        assert frechet_decide(a, b, d) == frechet_decide_reference(a, b, d)


# Denominators are primes near 2**16, so the common denominator has 80
# bits (prime-family inputs reach that size).  The distance is half the
# drop from a's second vertex to its third.
BIG_A = [F(1, 65521), F(655361, 65519), F(-3, 65497), F(10)]
BIG_B = [F(0), F(5, 65449), F(655351, 65479)]


def test_large_scale_factor_pair():
    assert lcm(*(x.denominator for x in BIG_A + BIG_B)).bit_length() >= 64
    v = frechet_value(BIG_A, BIG_B)
    assert v == (BIG_A[1] - BIG_A[2]) / 2 == F(21462187987, 4291297943)
    assert frechet_decide(BIG_A, BIG_B, v)
    assert frechet_decide_reference(BIG_A, BIG_B, v)
    tiny = F(1, 2**90)
    assert not frechet_decide(BIG_A, BIG_B, v - tiny)
    assert not frechet_decide_reference(BIG_A, BIG_B, v - tiny)
    assert discrete_frechet(BIG_A, BIG_B) == discrete_frechet_recursive(BIG_A, BIG_B)
    for x, y in ((BIG_A, BIG_B), (BIG_B, BIG_A)):
        assert discrete_weak(x, y, adjacency=8) == discrete_weak_bfs(x, y, 8)
        assert discrete_weak(x, y, adjacency=4) == discrete_weak_bfs(x, y, 4)
        assert weak_frechet_1d(x, y) == weak_frechet_cells_value(x, y)


PUBLIC_METRICS = (
    frechet_value,
    discrete_frechet,
    weak_frechet_1d,
    r_dp,
    rm_dp,
    lambda a, b: discrete_weak(a, b, adjacency=4),
    lambda a, b: discrete_weak(a, b, adjacency=8),
)


@pytest.mark.parametrize(
    "a,b",
    [([0], [0]), ([3], [0, 5]), ([0, 4, 1], [2, 2]), ([1, 2], ["1/2", "7/3"]), (BIG_A, BIG_B)],
)
def test_every_metric_returns_a_fraction(a, b):
    # the integer cores must not leak an int (or the float sentinel), also
    # when the caller passes plain ints or ratio strings
    for fn in PUBLIC_METRICS:
        assert type(fn(fr(a), fr(b))) is F
        assert type(fn(a, b)) is F


def test_frechet_value_bounds_other_metrics():
    rng = random.Random(79)
    for _ in range(150):
        a = random_curve(rng)
        b = random_curve(rng)
        v = frechet_value(a, b)
        assert weak_frechet_1d(a, b) <= v <= discrete_frechet(a, b)
        assert discrete_weak(a, b, adjacency=8) <= discrete_weak(a, b, adjacency=4)


# --- one-way traversal recurrences -------------------------------------------


RDP_TABLE = [
    ([0, 5, 1, 6], [0, 6], 0),
    ([0, 10, 0, 10], [0, 10], 0),
    ([0, 8, -2, 9], [1, 7, -1, 8], 1),
    ([2, -3, 4], [0, 0, 0], 3),
    ([0], [3], 3),
]


@pytest.mark.parametrize("a,b,want", RDP_TABLE)
def test_r_dp_frozen(a, b, want):
    a, b = fr(a), fr(b)
    assert r_dp(a, b) == F(want)
    assert rm_dp(a, b) == F(want)


def test_grown_curve_dps_agree():
    # on grown curves the last edge spans the whole prefix image, so the
    # edge-image and prefix-image recurrences coincide
    rng = random.Random(505)
    for _ in range(300):
        a = random_curve(rng, max_len=8)
        b = random_curve(rng, max_len=8)
        ga, gb = list(growing_curve(a)), list(growing_curve(b))
        assert rm_dp(ga, gb) == r_dp(ga, gb)


def test_growing_never_raises_r_dp():
    # growing removes charged interior vertices, so the one-way value can
    # only drop
    rng = random.Random(506)
    for _ in range(300):
        a = random_curve(rng, max_len=8)
        b = random_curve(rng, max_len=8)
        ga, gb = list(growing_curve(a)), list(growing_curve(b))
        assert r_dp(ga, gb) <= r_dp(a, b)


def test_r_dp_can_drop_under_growing():
    # growing <0,2,1> truncates the trailing retreat, so the interior
    # maximum 2 becomes the final vertex and is no longer charged
    a = fr([0])
    b = fr([0, 2, 1])
    assert r_dp(a, b) == 2
    ga, gb = list(growing_curve(a)), list(growing_curve(b))
    assert gb == fr([0, 2])
    assert r_dp(ga, gb) == 0
    assert rm_dp(ga, gb) == 0
    # the two-way maximum still recovers the weak distance
    assert weak_frechet_1d(a, b) == 2


def test_r_dp_grow_identity_on_grown_inputs():
    # growing is idempotent, so curves already in grown form satisfy the
    # identity exactly
    rng = random.Random(508)
    for _ in range(300):
        a = list(growing_curve(random_curve(rng, max_len=8)))
        b = list(growing_curve(random_curve(rng, max_len=8)))
        ga, gb = list(growing_curve(a)), list(growing_curve(b))
        assert ga == a and gb == b
        assert r_dp(ga, gb) == r_dp(a, b)
        assert rm_dp(ga, gb) == r_dp(a, b)


def test_weak_is_two_sided_r_dp():
    rng = random.Random(507)
    for _ in range(200):
        a = random_curve(rng, max_len=7)
        b = random_curve(rng, max_len=7)
        fwd = r_dp(a, b)
        bwd = r_dp(list(reversed(a)), list(reversed(b)))
        assert weak_frechet_1d(a, b) == max(fwd, bwd)


# (name, value core, scale factor) of the integer cores in precise.CORES,
# with discrete-weak once per adjacency
INT_CORES = [(name, *CORES[name]) for name in ("frechet", "discrete", "weak")] + [
    (f"discrete-weak-{k}", partial(value, adjacency=k), factor)
    for value, factor in [CORES["discrete-weak"]]
    for k in (8, 4)
]


def check_bracket(core, a, b, v, lo, hi):
    """The bracket contract of an integer core: the value v itself inside
    (lo, hi], an answer <= lo below it and > hi above it."""
    got = core(a, b, lo=lo, hi=hi)
    if v <= lo:
        assert got <= lo, (a, b, lo, hi, got)
    elif hi is not None and v > hi:
        assert got > hi, (a, b, lo, hi, got)
    else:
        assert got == v, (a, b, lo, hi, got)


@pytest.mark.parametrize("name,value,factor", INT_CORES, ids=[c[0] for c in INT_CORES])
def test_int_decisions_match_value_cores(name, value, factor):
    """Each value core keeps its bracket contract with lo and hi at the
    value and one or two steps either side of it, one end or both given,
    on scaled int curves of 1-5 vertices."""
    rng = random.Random(name)
    for _ in range(300):
        a, b = ([factor * rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] for _ in range(2))
        v = value(a, b)
        for lo in (-1, v - 2, v - 1, v, v + 1):
            for hi in (None, v - 1, v, v + 1, v + 2):
                if hi is None or lo < hi:
                    check_bracket(value, a, b, v, lo, hi)


def test_coupled_walk_bounds_every_value_core():
    """When the coupling walk accepts at d, the core's value is at most d:
    the diagonal walk for the continuous, discrete, weak and adjacency-8
    discrete weak cores, the staircase walk for adjacency 4, on 3,000
    seeded pairs of 1-8 vertices each, with d one below the value, at it
    and drawn at random up to the largest vertex distance."""
    for name, core, factor in INT_CORES:
        diagonal = name != "discrete-weak-4"
        rng = random.Random(f"coupled/{name}")
        accepted = 0
        for _ in range(3000):
            a, b = ([factor * rng.randint(-20, 20) for _ in range(rng.randint(1, 8))] for _ in range(2))
            v = core(a, b)
            top = max(max(a) - min(b), max(b) - min(a))
            for d in (v - 1, v, rng.randint(0, top)):
                if coupled(a, a, b, b, d, diagonal):
                    accepted += 1
                    assert v <= d, (name, a, b, d, v)
        # the check is not vacuous: the walk settles many pairs at d = v
        assert accepted >= 1500, name


def test_diagonal_walk_undercuts_adjacency_4():
    """At adjacency 4 a diagonal move is not a path step: on this pair the
    discrete weak value is 30 (8 at adjacency 8), yet a diagonal walk
    keeps every matched pair within 12.  The staircase walk, which
    advances the lagging curve first, accepts no d below 32."""
    a, b = [-8, -6, 12, -20, -16], [-4, -16, -12, 4, 16, -18]
    assert _discrete_weak(a, b, 4) == 30 and _discrete_weak(a, b, 8) == 8
    assert coupled(a, a, b, b, 12, True)
    assert not any(coupled(a, a, b, b, d, False) for d in range(32))
    assert coupled(a, a, b, b, 32, False)


# (name, independent Fraction decision from tests/oracles.py, value core, factor)
FRACTION_DECISIONS = [
    ("frechet", frechet_decide_reference, _frechet_value, 2),
    ("discrete", lambda a, b, d: discrete_frechet_recursive(a, b) <= d, _discrete_frechet, 1),
    ("weak", weak_frechet_cells_decide, _weak, 1),
    ("discrete-weak-8", lambda a, b, d: discrete_weak_bfs(a, b, 8) <= d, partial(_discrete_weak, adjacency=8), 1),
    ("discrete-weak-4", lambda a, b, d: discrete_weak_bfs(a, b, 4) <= d, partial(_discrete_weak, adjacency=4), 1),
]


@pytest.mark.parametrize("name,reference,core,factor", FRACTION_DECISIONS, ids=[c[0] for c in FRACTION_DECISIONS])
def test_int_decisions_match_references(name, reference, core, factor):
    """Each value core bracketed above at d, core(a, b, hi=d) <= d, on
    curves and delta scaled together, against an independent Fraction
    decision, with delta at a vertex distance or half of one (a critical
    value) and one 1/97 either side of it."""
    rng = random.Random(name)
    for k in range(200):
        a, b, _ = random_pair(rng, k, max_len=5)
        x, y = rng.choice(a + b), rng.choice(a + b)
        base = abs(x - y) / rng.choice((1, 2))
        for delta in (base - F(1, 97), base, base + F(1, 97)):
            if delta < 0:
                continue
            _, (ai, bi, (d,)) = scale_to_ints(a, b, (delta,), factor=factor)
            assert (core(ai, bi, hi=d) <= d) == reference(a, b, delta), (a, b, delta)


def random_walk(rng, n):
    """n int vertices, each step -4..4 from the one before."""
    xs = [rng.randint(-3, 3)]
    for _ in range(n - 1):
        xs.append(xs[-1] + rng.randint(-4, 4))
    return xs


def test_value_cores_on_long_walks():
    """The weak, discrete weak and discrete cores two-sided against the
    independent references on seeded random walks of 20-80 vertices, long
    enough for the recurrences' row stop and the discrete weak level heap
    to matter: weak_frechet_1d is accepted at its value and rejected half
    a unit below, and the discrete values equal the references'.  Their
    int cores keep the bracket contract just above, at and below the
    value."""
    rng = random.Random(2718)
    for _ in range(12):
        ai, bi = random_walk(rng, rng.randint(20, 80)), random_walk(rng, rng.randint(20, 80))
        a, b = fr(ai), fr(bi)
        w = weak_frechet_1d(a, b)
        assert weak_frechet_cells_decide(a, b, w), (a, b)
        assert not weak_frechet_cells_decide(a, b, w - F(1, 2)), (a, b)
        values = [(_weak, w)]
        for adjacency in (4, 8):
            v = discrete_weak_bfs(a, b, adjacency)
            assert discrete_weak(a, b, adjacency) == v, (a, b)
            values.append((partial(_discrete_weak, adjacency=adjacency), v))
        v = discrete_frechet_recursive(a, b)
        assert discrete_frechet(a, b) == v, (a, b)
        values.append((_discrete_frechet, v))
        for core, v in values:
            v = int(v)
            for lo, hi in ((-1, v - 1), (v - 1, v), (v, None)):
                check_bracket(core, ai, bi, v, lo, hi)


def repetitive_curve(rng, pool):
    """1-7 int vertices, most drawn from a small shared pool of values, a
    third of the curves one vertex long."""
    n = 1 if rng.random() < 0.3 else rng.randint(2, 7)
    return [rng.choice(pool) if rng.random() < 0.7 else rng.randint(-9, 9) for _ in range(n)]


def test_value_cores_on_repeated_values():
    """The int value cores against the independent Fraction references on
    pairs with many repeated values and many one-vertex curves: the
    continuous and discrete weak cores pick from distinct values only, and
    the discrete core unrolls the first row and column.  One pair in ten
    is one curve twice, and another one in ten has a single value, so its
    span is 0 and the value searches start at the bracket (-1, 0)."""
    rng = random.Random(1212)
    for k in range(400):
        pool = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
        a, b = repetitive_curve(rng, pool), repetitive_curve(rng, pool)
        if k % 10 == 3:
            b = list(a)
        elif k % 10 == 7:
            a, b = [pool[0]] * len(a), [pool[0]] * len(b)
        assert _discrete_frechet(a, b) == discrete_frechet_recursive(a, b), (a, b)
        got = _frechet_value([2 * x for x in a], [2 * y for y in b])
        assert got == 2 * frechet_value_reference(a, b), (a, b)
        for adjacency in (4, 8):
            assert _discrete_weak(a, b, adjacency) == discrete_weak_bfs(a, b, adjacency), (a, b)


def test_value_cores_on_reduction_curves():
    """The 37 x 29 upper-bound reduction curves (three variables, three
    clauses), every realisation: about 10 distinct values per curve.  The
    continuous value is checked two-sided with the reference decision, at
    the value and at the next smaller critical value."""
    from lbfrechet.oracle import EnumerationSpec, enumerate_realisations
    from lbfrechet.reductions import CnfFormula, build_ub_sat

    inst = build_ub_sat(CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3))))
    rv = inst.v.as_precise()
    for ru in enumerate_realisations(inst.u, EnumerationSpec()):
        assert (len(ru), len(rv)) == (37, 29)
        s, (ai, bi) = scale_to_ints(ru, rv, factor=2)
        assert F(_discrete_frechet(ai, bi), s) == discrete_frechet_recursive(ru, rv)
        value = F(_frechet_value(ai, bi), s)
        crit = {abs(x - y) for x in ru for y in rv}
        crit.update(abs(x - y) / 2 for xs in (ru, rv) for x in xs for y in xs)
        below = max(c for c in crit if c < value)
        assert frechet_decide_reference(ru, rv, value)
        assert not frechet_decide_reference(ru, rv, below)


def test_value_search_probes_frozen(monkeypatch):
    """The decisions frechet_value makes on one pair, in order, frozen:
    scaled by 6, the continuous search probes the rank pivots 6, 0, 2, 3,
    4 (delta 1, 0, 1/3, 1/2, 2/3).  discrete_weak makes no decisions; its
    one search, scaled by 3, passes the levels 3 (the corner bound), 6, 7,
    9 and 10, read off the weights it takes from its heap."""
    probes = []

    def logged_decide(a, b, d):
        probes.append(d)
        return decide(a, b, d)

    def logged_heappop(heap):
        item = heappop(heap)
        if item[0] != levels[-1]:
            levels.append(item[0])
        return item

    decide, heappop = precise._decide, precise.heappop
    monkeypatch.setattr(precise, "_decide", logged_decide)
    monkeypatch.setattr(precise, "heappop", logged_heappop)
    a, b = fr([0, 3, 1, 4]), fr([1, F(2, 3), 5])
    assert frechet_value(a, b) == 1 and probes == [6, 0, 2, 3, 4]
    probes.clear()
    levels = [3]
    assert discrete_weak(a, b, adjacency=4) == F(10, 3) and probes == []
    assert levels == [3, 6, 7, 9, 10]
