"""Enumeration grids and the brute-force bound oracle."""

import itertools
import random
from fractions import Fraction as F

import pytest

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


def _metric_fn(variant):
    return {
        "frechet": frechet_value,
        "discrete": discrete_frechet,
        "weak": weak_frechet_1d,
        "discrete-weak": lambda a, b: discrete_weak(a, b, 8),
    }[variant]


def random_uncertain(rng, max_len=3):
    pts = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.randint(0, 2)
        if kind == 0:
            pts.append(Precise(rng.randint(-3, 3)))
        elif kind == 1:
            lo = rng.randint(-3, 2)
            pts.append(make_interval(lo, lo + rng.randint(1, 2)))
        else:
            xs = sorted({rng.randint(-3, 3) for _ in range(2)})
            pts.append(make_set(xs))
    return curve(*pts)


@pytest.mark.parametrize("variant", VARIANTS)
def test_bound_oracle_matches_exhaustive(variant):
    rng = random.Random(hash(variant) & 0xFFFF)
    fn = _metric_fn(variant)
    spec = EnumerationSpec(resolution=3)
    for _ in range(20):
        u = random_uncertain(rng)
        v = random_uncertain(rng)
        values = [
            fn(list(ra), list(rb))
            for ra in enumerate_realisations(u, spec)
            for rb in enumerate_realisations(v, spec)
        ]
        assert bound_oracle(u, v, variant, "lower", spec) == min(values)
        assert bound_oracle(u, v, variant, "upper", spec) == max(values)


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


def test_bound_oracle_parallel_matches_serial():
    rng = random.Random(404)
    spec = EnumerationSpec(resolution=3)
    for _ in range(5):
        u = random_uncertain(rng)
        v = random_uncertain(rng)
        lo = bound_oracle(u, v, "discrete", "lower", spec)
        hi = bound_oracle(u, v, "discrete", "upper", spec)
        # stop thresholds that end the scan at once, partway or never
        for stop_at in (None, lo, (lo + hi) / 2, hi, hi + 1):
            for side in ("lower", "upper"):
                serial = bound_oracle(u, v, "discrete", side, spec, stop_at=stop_at)
                parallel = bound_oracle(
                    u, v, "discrete", side, spec, stop_at=stop_at, jobs=2
                )
                assert serial == parallel, (side, stop_at)


def test_bound_oracle_precise_inputs_collapse():
    u = curve(Precise(1), Precise(5))
    v = curve(Precise(0), Precise(4))
    for variant in VARIANTS:
        lo = bound_oracle(u, v, variant, "lower")
        hi = bound_oracle(u, v, variant, "upper")
        assert lo == hi == _metric_fn(variant)([F(1), F(5)], [F(0), F(4)])
