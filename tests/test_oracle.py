"""Enumeration grids and the brute-force bound oracle."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from lbfrechet import precise
from lbfrechet.model import Precise, UncertainCurve, make_interval, make_set
from lbfrechet.oracle import (
    VARIANTS,
    CapExceeded,
    EnumerationSpec,
    bound_oracle,
    enumerate_realisations,
    enumeration_size,
    vertex_candidates,
)
from lbfrechet.precise import discrete_frechet, discrete_weak, frechet_value, weak_frechet_1d
from lbfrechet.reductions import CnfFormula, build_weak_discrete_indecisive

from oracles import (
    discrete_frechet_recursive,
    discrete_weak_bfs,
    frechet_value_reference,
    weak_frechet_cells_value,
)


def curve(*pts):
    return UncertainCurve(pts)


MIXED = curve(make_interval(0, 2), Precise(5), make_set([1, 3]))


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumerationSpec(resolution=1)
    with pytest.raises(ValueError):
        EnumerationSpec(cap=0)
    s = EnumerationSpec(include_positions=(1, F(1, 2)))
    assert s.include_positions == (F(1), F(1, 2))


def test_vertex_candidates_kinds():
    cands = vertex_candidates(MIXED, EnumerationSpec(resolution=3))
    assert cands[0] == [F(0), F(1), F(2)]
    assert cands[1] == [F(5)]
    assert cands[2] == [F(1), F(3)]


def test_vertex_candidates_spacing():
    c = curve(make_interval(0, 1))
    cands = vertex_candidates(c, EnumerationSpec(resolution=4))
    assert cands[0] == [F(0), F(1, 3), F(2, 3), F(1)]


def test_vertex_candidates_include_positions():
    c = curve(make_interval(0, 1), make_interval(10, 11))
    spec = EnumerationSpec(resolution=2, include_positions=(F(1, 2), F(5), F(10)))
    cands = vertex_candidates(c, spec)
    # injected points land only in the intervals that contain them
    assert cands[0] == [F(0), F(1, 2), F(1)]
    assert cands[1] == [F(10), F(11)]


def test_vertex_candidates_dedup():
    c = curve(make_interval(0, 2))
    spec = EnumerationSpec(resolution=3, include_positions=(F(1), F(2)))
    assert vertex_candidates(c, spec)[0] == [F(0), F(1), F(2)]


def test_enumeration_size_and_order():
    spec = EnumerationSpec(resolution=3)
    assert enumeration_size(MIXED, spec) == 3 * 1 * 2
    reals = list(enumerate_realisations(MIXED, spec))
    assert len(reals) == 6
    assert reals == sorted(reals)
    assert reals[0] == (F(0), F(5), F(1))
    assert reals[-1] == (F(2), F(5), F(3))


def test_enumeration_size_counts_without_listing():
    """The counted size equals the listed candidates' product, with include
    positions on the grid, off it, outside every interval and repeated."""
    rng = random.Random(11)
    for _ in range(300):
        pts = []
        for _ in range(rng.randint(1, 4)):
            lo = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            kind = rng.randrange(4)
            if kind == 0:
                pts.append(Precise(lo))
            elif kind == 1:
                pts.append(make_set([lo, lo + rng.randint(1, 3), lo + F(1, 2)]))
            else:
                pts.append(make_interval(lo, lo + (F(rng.randint(0, 6), rng.choice((1, 2, 5))))))
        c = curve(*pts)
        r = rng.randint(2, 7)
        grid = [p.lo + F(k * (p.hi - p.lo), r - 1) for p in pts if hasattr(p, "lo") for k in range(r)]
        extra = [F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(rng.randint(0, 5))]
        inc = rng.sample(grid, min(len(grid), rng.randint(0, 3))) + extra
        inc += rng.sample(inc, min(len(inc), 2))
        spec = EnumerationSpec(resolution=r, include_positions=tuple(inc))
        cands = vertex_candidates(c, spec)
        assert enumeration_size(c, spec) == math.prod(map(len, cands)), (c, spec)
        for p, cs in zip(pts, cands):
            assert enumeration_size(curve(p), spec) == len(cs), (p, spec)


def test_enumerate_realisations_cap():
    c = curve(*[make_interval(0, 1)] * 4)
    with pytest.raises(CapExceeded):
        list(enumerate_realisations(c, EnumerationSpec(resolution=3, cap=80)))
    assert len(list(enumerate_realisations(c, EnumerationSpec(resolution=3, cap=81)))) == 81


def test_bound_oracle_cap_is_pair_product():
    u = curve(make_interval(0, 1), make_interval(0, 1))
    v = curve(make_interval(0, 1))
    # 4 * 2 = 8 pairs at resolution 2
    assert bound_oracle(u, v, "discrete", "lower", EnumerationSpec(cap=8)) == 0
    with pytest.raises(CapExceeded):
        bound_oracle(u, v, "discrete", "lower", EnumerationSpec(cap=7))


def test_bound_oracle_validates_arguments():
    u = curve(Precise(0))
    with pytest.raises(ValueError):
        bound_oracle(u, u, "frechet", "middle")
    with pytest.raises(ValueError):
        bound_oracle(u, u, "euclidean", "lower")
    # a bad variant or adjacency is reported before the cap is checked
    w = curve(make_interval(0, 1), make_interval(0, 1))
    with pytest.raises(ValueError, match="unknown variant"):
        bound_oracle(w, w, "euclidean", "lower", EnumerationSpec(cap=3))
    with pytest.raises(ValueError, match="adjacency"):
        bound_oracle(w, w, "discrete-weak", "lower", EnumerationSpec(cap=3), adjacency=6)


def _metric_fn(variant):
    return {
        "frechet": frechet_value,
        "discrete": discrete_frechet,
        "weak": weak_frechet_1d,
        "discrete-weak": lambda a, b: discrete_weak(a, b, 8),
    }[variant]


def random_uncertain(rng, max_len=3, den=1):
    """Vertices at k/den: precise points, intervals and two-element sets."""
    def at(k):
        return F(k, den)

    pts = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.randint(0, 2)
        if kind == 0:
            pts.append(Precise(at(rng.randint(-3 * den, 3 * den))))
        elif kind == 1:
            lo = rng.randint(-3 * den, 2 * den)
            pts.append(make_interval(at(lo), at(lo + rng.randint(1, 2 * den))))
        else:
            xs = sorted({at(rng.randint(-3 * den, 3 * den)) for _ in range(2)})
            pts.append(make_set(xs))
    return curve(*pts)


# (variant, adjacency, independent Fraction reference from tests/oracles.py)
REFERENCES = [
    pytest.param("frechet", 8, frechet_value_reference, id="frechet"),
    pytest.param("discrete", 8, discrete_frechet_recursive, id="discrete"),
    pytest.param("weak", 8, weak_frechet_cells_value, id="weak"),
    pytest.param("discrete-weak", 8, lambda a, b: discrete_weak_bfs(a, b, 8), id="discrete-weak"),
    pytest.param("discrete-weak", 4, lambda a, b: discrete_weak_bfs(a, b, 4), id="discrete-weak-adj4"),
]


def reference_bound(u, v, fn, side, spec, stop_at=None):
    """The oracle's scan written out on Fractions: realisation pairs in
    lexicographic order, stopping at the first best that meets stop_at."""
    best = None
    for ra in enumerate_realisations(u, spec):
        for rb in enumerate_realisations(v, spec):
            d = fn(list(ra), list(rb))
            if best is None or (d < best if side == "lower" else d > best):
                best = d
            if stop_at is not None and (best <= stop_at if side == "lower" else best >= stop_at):
                return best
    return best


@pytest.mark.parametrize("variant,adjacency,fn", REFERENCES)
def test_bound_oracle_matches_exhaustive(variant, adjacency, fn):
    """Against independent references on draws whose curves, injected
    position and stop_at each carry their own prime denominator, so the
    one scaling step must cover all of them."""
    rng = random.Random(f"{variant}/{adjacency}")
    for k in range(17):
        pu, pv, pi, ps = rng.sample((2, 3, 5, 7, 11, 13), 4) if k % 2 else (1, 1, 2, 3)
        u = random_uncertain(rng, den=pu)
        v = random_uncertain(rng, den=pv)
        spec = EnumerationSpec(resolution=3, include_positions=(F(rng.randint(-3 * pi, 3 * pi), pi),))
        if k == 0:
            # Frechet values at half an odd distance: (0, 3, 0, 3) to (0, 3)
            # is 3/2, with the interval's 7/2 making 7/4 another
            u = curve(Precise(0), make_interval(3, 4), Precise(0), Precise(3))
            v = curve(Precise(0), Precise(3))
        values = [
            fn(list(ra), list(rb))
            for ra in enumerate_realisations(u, spec)
            for rb in enumerate_realisations(v, spec)
        ]
        lo, hi = min(values), max(values)
        got_lo = bound_oracle(u, v, variant, "lower", spec, adjacency=adjacency)
        got_hi = bound_oracle(u, v, variant, "upper", spec, adjacency=adjacency)
        assert (got_lo, got_hi) == (lo, hi)
        assert type(got_lo) is F and type(got_hi) is F
        # a threshold inside (lo, hi) whose denominator carries ps
        stop_at = lo + (hi - lo) * F(rng.randint(1, 4 * ps - 1), 4 * ps) + F(1, 1000 * ps)
        if not lo < stop_at < hi:
            stop_at = F(rng.randint(0, 6 * ps), ps)
        for side in ("lower", "upper"):
            want = reference_bound(u, v, fn, side, spec, stop_at)
            got = bound_oracle(u, v, variant, side, spec, adjacency=adjacency, stop_at=stop_at)
            assert got == want, (side, stop_at)


def test_bound_oracle_adjacency_passthrough():
    u = curve(Precise(0), Precise(4))
    v = curve(Precise(0), Precise(4))
    assert bound_oracle(u, v, "discrete-weak", "lower", adjacency=8) == 0
    assert bound_oracle(u, v, "discrete-weak", "lower", adjacency=4) == 4


def test_bound_oracle_stop_at():
    u = curve(make_interval(0, 3))
    v = curve(Precise(0))
    # lower bound with stop_at: may stop early, result must still witness
    # the decision
    got = bound_oracle(u, v, "discrete", "lower", stop_at=F(0))
    assert got == 0
    got = bound_oracle(u, v, "discrete", "upper", stop_at=F(2))
    assert got >= 2
    # unreachable stop threshold degrades to the exact bound
    assert bound_oracle(u, v, "discrete", "upper", stop_at=F(100)) == 3


def test_bound_oracle_precise_inputs_collapse():
    u = curve(Precise(1), Precise(5))
    v = curve(Precise(0), Precise(4))
    for variant in VARIANTS:
        lo = bound_oracle(u, v, variant, "lower")
        hi = bound_oracle(u, v, variant, "upper")
        assert lo == hi == _metric_fn(variant)([F(1), F(5)], [F(0), F(4)])


def test_scan_evaluates_only_strict_improvements(monkeypatch):
    """On a weak-discrete verify instance the scan computes full values
    only for pairs that beat the best so far: each value it computes is
    strictly better than the one before, and on the lower side there are
    far fewer of them than enumerated pairs."""
    inst = build_weak_discrete_indecisive(CnfFormula(2, ((1, 2), (-1, 2), (1, -2))))
    spec = EnumerationSpec()
    pairs = enumeration_size(inst.u, spec) * enumeration_size(inst.v, spec)
    want = {
        side: bound_oracle(inst.u, inst.v, "discrete-weak", side, spec, adjacency=8)
        for side in ("lower", "upper")
    }
    core, decide, factor = precise.CORES["discrete-weak"]
    values = []

    def counting(a, b, adjacency):
        values.append(core(a, b, adjacency))
        return values[-1]

    monkeypatch.setitem(precise.CORES, "discrete-weak", (counting, decide, factor))
    for side, better in (("lower", lambda x, y: y < x), ("upper", lambda x, y: y > x)):
        values.clear()
        got = bound_oracle(inst.u, inst.v, "discrete-weak", side, spec, adjacency=8)
        assert got == want[side] == values[-1]
        assert all(better(x, y) for x, y in zip(values, values[1:])), side
        assert len(values) * 20 <= pairs
