"""Bound closure, cone sums, the fused propagation kernels, and Region ops."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from lbfrechet import regions
from lbfrechet.regions import (
    Bounds,
    ClipBox,
    Cone,
    Region,
    bounds_contain,
    bounds_covered,
    bounds_hull,
    bounds_subset,
    close_bounds,
    bounds_vertices,
    meet_bounds,
    mink_bounds,
    normalize_pieces,
    opposite,
)

from oracles import CONE_SIGNS, bounds_vertices_angle_sort, cone_contains

BLO, BHI = -8, 12
SPAN = BHI - BLO

coord = st.integers(BLO, BHI)
diff = st.integers(-SPAN, SPAN)


def raw_bounds(draw_x, draw_d):
    return st.tuples(draw_x, draw_x, draw_x, draw_x, draw_d, draw_d).map(
        lambda t: (
            min(t[0], t[1]),
            max(t[0], t[1]),
            min(t[2], t[3]),
            max(t[2], t[3]),
            min(t[4], t[5]),
            max(t[4], t[5]),
        )
    )


bounds_st = raw_bounds(coord, diff)
closed_st = bounds_st.map(lambda b: close_bounds(*b)).filter(lambda p: p is not None)


def sample_points(p: Bounds):
    """Integer grid points of a piece (bounds are ints here)."""
    for x in range(p[0], p[1] + 1):
        ylo = max(p[2], x + p[4])
        yhi = min(p[3], x + p[5])
        for y in range(ylo, yhi + 1):
            yield (x, y)


# --- closure ---------------------------------------------------------------


@given(bounds_st)
def test_close_bounds_fixpoint(b):
    c = close_bounds(*b)
    if c is None:
        return
    assert close_bounds(*c) == c
    # tightening never grows the constraint set
    assert c[0] >= b[0] and c[1] <= b[1]
    assert c[2] >= b[2] and c[3] <= b[3]
    assert c[4] >= b[4] and c[5] <= b[5]


@given(bounds_st)
def test_close_bounds_preserves_solutions(b):
    c = close_bounds(*b)
    pts = [
        (x, y)
        for x in range(b[0], b[1] + 1)
        for y in range(b[2], b[3] + 1)
        if b[4] <= y - x <= b[5]
    ]
    if c is None:
        assert not pts
        return
    for x, y in pts:
        assert bounds_contain(c, x, y)
    for x, y in sample_points(c):
        assert b[0] <= x <= b[1] and b[2] <= y <= b[3] and b[4] <= y - x <= b[5]


@given(closed_st)
def test_closed_bounds_attained(p):
    """Every one of the six bounds is hit by an actual point."""
    xs = [x for x, _ in sample_points(p)]
    ys = [y for _, y in sample_points(p)]
    ds = [y - x for x, y in sample_points(p)]
    assert min(xs) == p[0] and max(xs) == p[1]
    assert min(ys) == p[2] and max(ys) == p[3]
    assert min(ds) == p[4] and max(ds) == p[5]


def test_close_bounds_detects_hidden_emptiness():
    # consistent per-axis, empty once the difference bound is applied
    assert close_bounds(0, 10, 20, 30, -5, 5) is None
    assert close_bounds(0, 1, 0, 1, 3, 4) is None
    assert close_bounds(5, 4, 0, 1, -1, 1) is None


def test_close_bounds_works_on_fractions():
    c = close_bounds(F(0), F(3, 2), F(1, 3), F(4), F(-10), F(1, 2))
    assert c is not None
    assert close_bounds(*c) == c


# --- meet ------------------------------------------------------------------


@given(closed_st, closed_st)
def test_meet_is_intersection(a, b):
    m = meet_bounds(a, b)
    inter = sorted(set(sample_points(a)) & set(sample_points(b)))
    if m is None:
        assert not inter
        return
    assert sorted(sample_points(m)) == inter


# --- cones and Minkowski sums ------------------------------------------------


def test_cone_signs_cover_all():
    """The reference sign table names every cone, and no other."""
    assert set(CONE_SIGNS) == {cone.value for cone in Cone}
    for cone in Cone:
        sx, sy = CONE_SIGNS[cone.value]
        assert sx in (1, -1, 0, None) and sy in (1, -1, 0, None)
        assert cone_contains(cone, 0, 0)


@pytest.mark.parametrize("cone", list(Cone))
def test_opposite_cone_holds_the_negated_steps(cone):
    assert opposite[opposite[cone]] is cone
    for dx in range(-3, 4):
        for dy in range(-3, 4):
            assert cone_contains(opposite[cone], dx, dy) == cone_contains(cone, -dx, -dy)


@pytest.mark.parametrize("cone", list(Cone))
def test_mink_bounds_membership(cone):
    rng = random.Random(cone.value)
    for _ in range(40):
        raw = sorted(rng.randint(BLO, BHI) for _ in range(2))
        raw2 = sorted(rng.randint(BLO, BHI) for _ in range(2))
        raw3 = sorted(rng.randint(-SPAN, SPAN) for _ in range(2))
        p = close_bounds(raw[0], raw[1], raw2[0], raw2[1], raw3[0], raw3[1])
        if p is None:
            continue
        out = mink_bounds(p, cone, BLO, BHI)
        # every reachable in-box point is inside
        for x, y in list(sample_points(p))[:20]:
            for dx in (-2, -1, 0, 1, 3):
                for dy in (-2, -1, 0, 1, 3):
                    if not cone_contains(cone, dx, dy):
                        continue
                    nx, ny = x + dx, y + dy
                    if BLO <= nx <= BHI and BLO <= ny <= BHI:
                        assert bounds_contain(out, nx, ny)
        # and every point of the output is reachable from some source point
        for x, y in list(sample_points(out))[:30]:
            assert any(
                cone_contains(cone, x - sx, y - sy) for sx, sy in sample_points(p)
            )


@pytest.mark.parametrize("cone", list(Cone))
def test_point_sum_with_the_opposite_cone_is_the_preimage(cone):
    """The sum of a point z with opposite[cone], as the witness walk takes
    it, holds exactly the in-box grid points from which cone reaches z."""
    rng = random.Random(cone.value)
    box = [(x, y) for x in range(BLO, BHI + 1) for y in range(BLO, BHI + 1)]
    for _ in range(10):
        x, y = rng.randint(BLO, BHI), rng.randint(BLO, BHI)
        pre = mink_bounds((x, x, y, y, y - x, y - x), opposite[cone], BLO, BHI)
        assert set(sample_points(pre)) == {p for p in box if cone_contains(cone, x - p[0], y - p[1])}


# --- fused kernels -----------------------------------------------------------


# Each fused kernel _mm_<cone> against the generic composition of its cone.
KERNELS = sorted(name for name in vars(regions) if name.startswith("_mm_"))


def test_mink_meet_covers_quadrants_and_half_planes():
    assert {Cone[name[4:].upper()] for name in KERNELS} == {
        Cone.Q_RU,
        Cone.Q_LU,
        Cone.Q_RD,
        Cone.Q_LD,
        Cone.H_R,
        Cone.H_L,
        Cone.H_U,
        Cone.H_D,
    }


def _kernel_and_composition(name, p, q):
    cone = Cone[name[4:].upper()]
    return getattr(regions, name)(p, q), meet_bounds(mink_bounds(p, cone, BLO, BHI), q)


@settings(max_examples=400)
@given(closed_st, closed_st, st.sampled_from(KERNELS))
def test_mink_meet_matches_composition(p, q, name):
    got, want = _kernel_and_composition(name, p, q)
    assert got == want


def test_mink_meet_matches_composition_degenerate():
    rng = random.Random(5151)
    for _ in range(4000):
        x = rng.randint(BLO, BHI)
        y = rng.randint(BLO, BHI)
        point = close_bounds(x, x, y, y, y - x, y - x)
        lo, hi = sorted((rng.randint(BLO, BHI), rng.randint(BLO, BHI)))
        dlo, dhi = sorted((rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN)))
        other = close_bounds(lo, hi, BLO, BHI, dlo, dhi)
        if other is None:
            continue
        p, q = (point, other) if rng.random() < 0.5 else (other, point)
        got, want = _kernel_and_composition(rng.choice(KERNELS), p, q)
        assert got == want


def test_kernels_map_the_beyond_box_stand_in_to_none():
    """The sweep stands in for an empty region with one piece beyond the clip
    box on every bound; every kernel, and meet_bounds, must map it to None
    against any closed slab inside the box, however wide the box."""
    rng = random.Random(6060)
    for blo, bhi in ((BLO, BHI), (-(2**1100) - 3, 2**1101 + 5)):
        empty = (bhi + 1, blo - 1, bhi + 1, blo - 1, bhi - blo + 1, blo - bhi - 1)
        span = bhi - blo
        slabs = [(blo, blo, 0), (bhi, bhi, span), (blo, bhi, 0), (blo, bhi, span)]
        for _ in range(200):
            lo, hi = sorted((rng.randint(blo, bhi), rng.randint(blo, bhi)))
            slabs.append((lo, hi, rng.randint(0, span)))
        for lo, hi, d in slabs:
            for q in (close_bounds(lo, hi, blo, bhi, -d, d), close_bounds(blo, bhi, lo, hi, -d, d)):
                assert meet_bounds(empty, q) is None
                for name in KERNELS:
                    assert getattr(regions, name)(empty, q) is None, (name, q)


# --- piece predicates --------------------------------------------------------


@given(closed_st, closed_st)
def test_bounds_subset_vs_sampling(p, q):
    claimed = bounds_subset(p, q)
    actual = set(sample_points(p)) <= set(sample_points(q))
    if claimed:
        assert actual
    # closed pieces: subset holds exactly when containment does
    if actual:
        assert claimed


@given(closed_st, closed_st)
def test_bounds_hull_contains_both(p, q):
    h = bounds_hull(p, q)
    for x, y in sample_points(p):
        assert bounds_contain(h, x, y)
    for x, y in sample_points(q):
        assert bounds_contain(h, x, y)


def quarter_points(p: Bounds):
    """Quarter-grid points of a piece with integer bounds, scaled by 4.

    Integer-bounded pieces are unions of closed faces of the arrangement of
    the lines x=k, y=k and y-x=k (k integer), so a relatively open face that
    meets such a piece lies inside it.  Every face contains a quarter-grid
    point: vertices are integer points, edges have half-integer midpoints,
    and each unit-square triangle holds (a+3/4, b+1/4) or (a+1/4, b+3/4).
    So these samples decide containment of unions exactly, where integer
    samples miss gaps such as the open segment between (0,0) and (0,1)."""
    return sample_points(tuple(4 * b for b in p))


@given(st.lists(closed_st, min_size=1, max_size=4), closed_st)
@example(
    cover=[close_bounds(0, 0, 0, 0, -SPAN, SPAN), close_bounds(0, 0, 1, 1, -SPAN, SPAN)],
    target=close_bounds(0, 0, 0, 1, -SPAN, SPAN),
)
def test_bounds_covered_vs_sampling(cover, target):
    claimed = bounds_covered(target, cover)
    points = set()
    for c in cover:
        points |= set(quarter_points(c))
    actual = set(quarter_points(target)) <= points
    assert claimed == actual


def test_bounds_covered_needs_joint_cover():
    left = close_bounds(0, 2, 0, 4, -SPAN, SPAN)
    right = close_bounds(2, 4, 0, 4, -SPAN, SPAN)
    target = close_bounds(0, 4, 1, 3, -SPAN, SPAN)
    assert bounds_covered(target, [left, right])
    assert not bounds_covered(target, [left])
    gap = close_bounds(3, 4, 0, 4, -SPAN, SPAN)
    assert not bounds_covered(target, [left, gap])


@given(st.lists(closed_st, min_size=0, max_size=5))
def test_normalize_pieces_preserves_union(pieces):
    out = normalize_pieces(pieces)
    assert len(out) <= max(len(pieces), 1)
    union_in = set()
    for p in pieces:
        union_in |= set(sample_points(p))
    union_out = set()
    for p in out:
        union_out |= set(sample_points(p))
    assert union_in == union_out
    # output pieces are closed and pairwise non-contained
    for p in out:
        assert close_bounds(*p) == p
    for i, p in enumerate(out):
        for j, q in enumerate(out):
            if i != j:
                assert not bounds_subset(p, q)


# --- regions -----------------------------------------------------------------


BOX = ClipBox(F(BLO), F(BHI))


def test_clip_box_validation():
    with pytest.raises(ValueError):
        ClipBox(F(1), F(1))
    with pytest.raises(ValueError):
        ClipBox(F(2), F(1))


def region_of(*pieces):
    return Region.from_bounds(pieces, BOX)


def test_region_basics():
    r = region_of((F(0), F(2), F(0), F(2), F(-SPAN), F(SPAN)))
    assert len(r.pieces) == 1
    assert r.contains(F(1), F(1))
    assert not r.contains(F(3), F(1))
    assert region_of().pieces == ()
    assert region_of().subset(r) and not r.subset(region_of())


def test_region_x_projection_merges():
    # the first two pieces overlap in x but not in y, so they stay two
    # pieces and only the projection merges them
    r = region_of(
        (F(0), F(2), F(0), F(1), F(-SPAN), F(SPAN)),
        (F(1), F(3), F(2), F(3), F(-SPAN), F(SPAN)),
        (F(5), F(6), F(0), F(2), F(-SPAN), F(SPAN)),
    )
    assert len(r.pieces) == 3
    assert r.x_projection() == [(F(0), F(3)), (F(5), F(6))]


# (raw bounds, the dump line), pinned from the angle-sort corner order.
PINNED_DUMPS = {
    "hexagon": ((0, 4, 0, 4, F(-5, 2), F(3, 2)), "(0,0) (2.5,0) (4,1.5) (4,4) (2.5,4) (0,1.5)"),
    "pentagon": ((0, 4, 0, 4, -2, 4), "(0,0) (2,0) (4,2) (4,4) (0,4)"),
    "horizontal": ((F(-1, 2), 3, 1, 1, -SPAN, SPAN), "(-0.5,1) (3,1)"),
    "vertical": ((2, 2, F(-1, 3), 5, -SPAN, SPAN), "(2,-1/3) (2,5)"),
    "slope-1": ((0, 3, -SPAN, SPAN, 1, 1), "(0,1) (3,4)"),
    "point": ((F(7, 4), F(7, 4), -3, -3, -SPAN, SPAN), "(1.75,-3)"),
}


def test_region_dump_lines():
    r = region_of((F(0), F(1), F(0), F(1), F(-1), F(1)))
    lines = r.dump_lines()
    assert len(lines) == 1
    assert lines[0].strip()
    for name, (raw, line) in PINNED_DUMPS.items():
        assert region_of(tuple(F(b) for b in raw)).dump_lines() == [line], name


def test_corner_walk_matches_the_angle_sort():
    """bounds_vertices walks the six edges; on 100k seeded random closed
    pieces it lists the corners of the angle sort around the centroid.
    The bounds are small, so many pieces are points, segments or
    triangles, and one in sixteen has Fraction bounds of mixed denominators."""
    rng = random.Random(7373)

    def pair(k, den):
        lo, hi = sorted(rng.randint(-k, k) for _ in range(2))
        return (lo, hi) if den == 1 else (F(lo, den), F(hi, den))

    corners = [0] * 7
    fractional = 0
    while sum(corners) < 100_000:
        dens = (1, 1, 1) if rng.randrange(16) else [rng.choice((1, 2, 3)) for _ in range(3)]
        p = close_bounds(*pair(4, dens[0]), *pair(4, dens[1]), *pair(8, dens[2]))
        if p is None:
            continue
        got = bounds_vertices(p)
        assert got == bounds_vertices_angle_sort(p), p
        corners[len(got)] += 1
        fractional += any(isinstance(b, F) for b in p)
    assert min(corners[1:]) >= 1000 and fractional >= 5000, (corners, fractional)
