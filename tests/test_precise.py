"""Precise-curve metrics against hand-frozen values and independent oracles."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from lbfrechet.model import growing_curve
from lbfrechet.precise import (
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
