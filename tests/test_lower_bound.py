"""Lower-bound Frechet decision: propagation, traces, witnesses, search."""

import math
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction as F

import pytest

from lbfrechet import lower_bound
from lbfrechet.lower_bound import (
    LbTrace,
    _reduce,
    _three,
    _two,
    clip_box_for,
    compute_lb,
    decide_lb,
    extract_witness,
)
from lbfrechet.model import (
    FiniteSet,
    Precise,
    UncertainCurve,
    is_realisation,
    make_interval,
    make_set,
    reach_bound,
    scale_to_ints,
)
from lbfrechet.oracle import EnumerationSpec, bound_oracle
from lbfrechet.precise import frechet_decide, frechet_value
from lbfrechet.regions import (
    ClipBox,
    Cone,
    Region,
    bounds_subset,
    close_bounds,
    meet_bounds,
    mink_bounds,
    normalize_pieces,
)
from oracles import clip_box_reference, compute_lb_reference


def ic(*spans):
    pts = []
    for s in spans:
        if isinstance(s, tuple):
            pts.append(make_interval(F(s[0]), F(s[1])))
        else:
            pts.append(Precise(F(s)))
    return UncertainCurve(pts)


FIG_U = ic((0, 1))
FIG_V = ic((F(-3, 2), F(-1, 5)), (F(3, 2), 2))


def test_single_interval_pair_projection():
    out = decide_lb(FIG_U, FIG_V, F(1))
    assert out.feasible
    assert out.final_region.x_projection() == [(F(1, 2), F(4, 5))]


def test_single_interval_pair_witness():
    out = decide_lb(FIG_U, FIG_V, F(1), trace=True)
    wit = extract_witness(out.trace)
    assert wit is not None
    wu, wv = wit
    assert is_realisation(wu, FIG_U)
    assert is_realisation(wv, FIG_V)
    assert frechet_decide(list(wu), list(wv), F(1))
    assert F(1, 2) <= wu[0] <= F(4, 5)


def test_no_witness_on_an_infeasible_trace():
    out = decide_lb(FIG_U, FIG_V, F(1, 10), trace=True)
    assert not out.feasible
    assert extract_witness(out.trace) is None


def test_witness_is_checked_by_the_precise_decision(monkeypatch):
    # extract_witness must keep re-checking its pair exactly, through the
    # module attribute lbfrechet.precise.frechet_decide
    import lbfrechet.precise

    out = decide_lb(FIG_U, FIG_V, F(1), trace=True)
    monkeypatch.setattr(lbfrechet.precise, "frechet_decide", lambda a, b, d: False)
    with pytest.raises(AssertionError, match="witness fails the precise decision"):
        extract_witness(out.trace)


def test_delta_must_be_positive():
    with pytest.raises(ValueError):
        decide_lb(FIG_U, FIG_V, F(0))
    with pytest.raises(ValueError):
        decide_lb(FIG_U, FIG_V, F(-1))
    with pytest.raises(ValueError):
        compute_lb(FIG_U, FIG_V, F(0))


def test_finite_set_vertices_hulled_with_warning():
    u = UncertainCurve([make_set([F(0), F(1)])])
    hull = ic((0, 1))
    with pytest.raises(ValueError):
        decide_lb(u, FIG_V, F(1), strict=True)
    with pytest.warns(UserWarning):
        got = decide_lb(u, FIG_V, F(1))
    want = decide_lb(hull, FIG_V, F(1))
    assert got.feasible == want.feasible
    assert got.final_region.equals(want.final_region)


def test_finite_sets_on_both_curves_warn_once_per_call():
    u = UncertainCurve([make_set([F(0), F(1)]), Precise(F(2))])
    v = UncertainCurve([Precise(F(0)), make_set([F(1), F(3)])])
    for call in (lambda: decide_lb(u, v, F(1)), lambda: compute_lb(u, v, F(1, 4))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [UserWarning]


def test_single_vertex_pair():
    u = ic((0, 1))
    v = ic((5, 6))
    assert decide_lb(u, v, F(4)).feasible
    assert not decide_lb(u, v, F(7, 2)).feasible
    # witness at the exact threshold pins both endpoints
    out = decide_lb(u, v, F(4), trace=True)
    wu, wv = extract_witness(out.trace)
    assert abs(wu[0] - wv[0]) <= F(4)


def test_all_precise_matches_frechet_value():
    rng = random.Random(2210)
    for _ in range(80):
        a = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
        b = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
        u = UncertainCurve([Precise(x) for x in a])
        v = UncertainCurve([Precise(x) for x in b])
        val = frechet_value(a, b)
        for probe in (val, val + 1, val + F(1, 2), max(val - F(1, 3), F(1, 7))):
            if probe <= 0:
                continue
            assert decide_lb(u, v, probe).feasible == (val <= probe)


def random_interval_curve(rng, max_len=5):
    pts = []
    for _ in range(rng.randint(1, max_len)):
        lo = F(rng.randint(-6, 5), 2)
        pts.append(make_interval(lo, lo + F(rng.randint(0, 4), 2)))
    return UncertainCurve(pts)


def tables(trace):
    """The traced rows as one {(i, j): pieces} dict per kind."""
    return {kind: {(i, j): ps for i, j, ps in trace.stored(kind)} for kind in "UDRL"}


def _generic_region(trace, kind, i, j):
    """The region of kind at (i, j) recomputed from the recorded
    predecessors with the generic mink_bounds + meet_bounds, written out
    from the recurrences independently of the sweep."""
    blo, bhi = trace.box_scaled
    d = trace.delta_scaled
    band = close_bounds(blo, bhi, blo, bhi, -d, d)
    islab, jslab, region = trace.i_pieces, trace.j_pieces, trace.region
    ray = {"U": Cone.S_U, "D": Cone.S_D, "R": Cone.S_R, "L": Cone.S_L}[kind]
    vertical = kind in "UD"
    if i == j == 1:
        sources, target = [(trace.x00, ray)], band
    elif vertical and i == 1:
        # base row: cross v's vertex j, then ray up or down
        sources = [(meet_bounds(p, jslab[j]), ray) for k in "UD" for p in region(k, 1, j - 1)]
        target = band
    elif not vertical and j == 1:
        # base column: cross u's vertex i, then ray right or left
        sources = [(meet_bounds(p, islab[i]), ray) for k in "RL" for p in region(k, i - 1, 1)]
        target = band
    else:
        cones = {
            "U": {"U": Cone.H_U, "R": Cone.Q_RU, "L": Cone.Q_LU},
            "D": {"D": Cone.H_D, "R": Cone.Q_RD, "L": Cone.Q_LD},
            "R": {"R": Cone.H_R, "U": Cone.Q_RU, "D": Cone.Q_RD},
            "L": {"L": Cone.H_L, "U": Cone.Q_LU, "D": Cone.Q_LD},
        }[kind]
        prev = (i - 1, j) if vertical else (i, j - 1)
        sources = [(p, cone) for k, cone in cones.items() for p in region(k, *prev)]
        target = islab[i] if vertical else jslab[j]
    pieces = [
        meet_bounds(mink_bounds(p, cone, blo, bhi), target)
        for p, cone in sources
        if p is not None
    ]
    return scaled_region(trace, pieces)


def scaled_region(trace, pieces):
    return Region.from_bounds(
        [tuple(F(x, trace.scale) for x in p) for p in pieces if p is not None],
        ClipBox(*(F(b, trace.scale) for b in trace.box_scaled)),
    )


def test_traced_and_fast_paths_agree():
    rng = random.Random(3141)
    checked = 0
    # interior sweep steps by the shape of their four sources: one piece in
    # each or some empty and the rest one piece (the fused step), none in
    # any (left empty), and some with two pieces (walks _PREDS); the longer,
    # wider draws at the end give the two-piece shape more cells
    shapes = Counter()
    for k in range(180):
        wide = k >= 120
        u = random_interval_curve(rng, max_len=8 if wide else 5)
        v = random_interval_curve(rng, max_len=8 if wide else 5)
        delta = F(rng.randint(1, 8 if wide else 4), 2)
        fast = decide_lb(u, v, delta)
        traced = decide_lb(u, v, delta, trace=True)
        assert fast.trace is None and isinstance(traced.trace, LbTrace)
        assert fast.feasible == traced.feasible
        assert fast.final_region.equals(traced.final_region)
        trace = traced.trace
        m, n = len(u), len(v)
        # the sweep's stand-in for an empty region, beyond the box, never
        # leaks into the recorded regions or the final parts
        blo, bhi = trace.box_scaled
        tab = tables(trace)
        stored = [p for kind in "UDRL" for ps in tab[kind].values() for p in ps]
        for p in stored + [p for *_, ps in trace.final_parts for p in ps]:
            assert blo <= p[0] <= p[1] <= bhi and blo <= p[2] <= p[3] <= bhi, p
            assert blo - bhi <= p[4] <= p[5] <= bhi - blo, p
        for kind in "UD":
            assert list(tab[kind]) == [(i, j) for i in range(1, m + 1) for j in range(1, n)]
        for kind in "RL":
            assert list(tab[kind]) == [(i, j) for i in range(1, m) for j in range(1, n + 1)]
        for kind in "UDRL":
            # cells outside the stored rows read as empty
            for i, j in ((0, 1), (1, 0), (m + 1, 1), (1, n + 1), (m, n)):
                assert trace.region(kind, i, j) == () and trace.provenance(kind, i, j) == ()
            for (i, j), pieces in tab[kind].items():
                assert trace.region(kind, i, j) == pieces
                recorded = scaled_region(trace, pieces)
                assert recorded.equals(_generic_region(trace, kind, i, j)), (kind, i, j)
                # the provenance view splits the same region by term
                terms = trace.provenance(kind, i, j)
                assert recorded.equals(scaled_region(trace, [p for _, ps in terms for p in ps]))
                checked += 1
        for i in range(1, m):
            for j in range(1, n):
                sizes = {len(tab[kind][(i, j)]) for kind in "UDRL"}
                shape = "two" if 2 in sizes else "one" if sizes == {1} else "none" if sizes == {0} else "some empty"
                shapes[shape] += 1
    assert checked > 1000
    assert set(shapes) == {"one", "none", "some empty", "two"}, shapes


# Odd primes for planted pairs whose scale factor, the lcm of every
# denominator, reaches about 64 bits.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _planted_pair(rng, n, dens=PRIMES):
    """(u, v, delta), feasible at delta: x_i walks within [-3 delta,
    3 delta], y_i = x_i + e_i with |e_i| <= delta, and vertex i of u (of v)
    widens x_i (y_i) by up to three times delta on each side, every value
    with a random denominator from dens, by default an odd prime (doubled
    until its range holds one).  Matching vertex i with vertex i stays
    within delta."""

    def num(lo, hi):
        den = rng.choice(dens)
        while math.ceil(lo * den) > math.floor(hi * den):
            den *= 2
        return F(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)

    delta = num(F(1, 2), F(2))
    widths = (F(0), delta / 4, delta, 3 * delta)
    x = F(0)
    spans = ([], [])
    for _ in range(n):
        x += num(-delta, delta)
        if abs(x) > 3 * delta:
            x = (6 * delta - abs(x)) * (1 if x > 0 else -1)
        y = x + num(-delta, delta)
        for centre, out in zip((x, y), spans):
            lo = centre - num(F(0), rng.choice(widths))
            out.append(make_interval(lo, centre + num(F(0), rng.choice(widths))))
    return UncertainCurve(spans[0]), UncertainCurve(spans[1]), delta


def test_skipped_terms_leave_the_cleanup_unchanged():
    """Each interior region the sweep records equals, as a tuple, the
    cleanup (_reduce) of all its _PREDS terms: the sweep skips only terms
    the cleanup would drop, so the pieces and their order, which the dump
    files print, stay those of the full recurrence.  Two corpora: small
    random pairs, and planted pairs with prime denominators, whose scale
    factors pass 60 bits and whose wide vertex regions give hundreds of
    interior cells a two-piece source, the sweep's multi-piece step.  The
    untraced sweep's final parts equal the traced ones as tuples."""
    rng = random.Random(1)

    def curve():
        pts = []
        for _ in range(rng.randint(1, 8)):
            a, b = sorted(F(rng.randint(-12, 12), 2) for _ in range(2))
            pts.append(make_interval(a, b))
        return UncertainCurve(pts)

    small = [(curve(), curve(), F(rng.randint(1, 12), 2)) for _ in range(300)]
    prime_rng = random.Random(7)
    planted = [_planted_pair(prime_rng, prime_rng.randint(20, 30)) for _ in range(12)]
    checked = two_piece = 0
    for k, (u, v, delta) in enumerate(small + planted):
        trace = decide_lb(u, v, delta, trace=True).trace
        blo, bhi = trace.box_scaled
        tab = tables(trace)
        for kind in "UDRL":
            for (i, j), pieces in tab[kind].items():
                cell, slab, target, terms = trace.terms(kind, i, j)
                if cell is None or slab is not None:
                    continue  # the start cell and the base row and column
                got = (meet_bounds(mink_bounds(p, cone, blo, bhi), target) for _, cone, ps in terms for p in ps)
                assert pieces == _reduce([q for q in got if q is not None]), (kind, i, j)
                checked += 1
        s = trace.scale
        su, sv = trace.hulls[: trace.m], trace.hulls[trace.m :]
        *_, final_parts = lower_bound._sweep(su, sv, trace.delta_scaled, blo, bhi, False)
        assert final_parts == trace.final_parts
        if k >= len(small):
            assert final_parts and s.bit_length() >= 60, s
            two_piece += sum(
                any(len(tab[kind][(i, j)]) > 1 for kind in "UDRL")
                for i in range(1, trace.m)
                for j in range(1, trace.n)
            )
    assert checked > 10000
    assert two_piece >= 500, two_piece


def test_sweep_reads_the_kernels_from_lower_bound():
    """The sweep looks its kernels up in lower_bound's globals when it is
    called, so a wrapper patched there (as perfbench's tracer does) sees
    the calls, here on a pair with multi-piece cells."""
    u, v, delta = _planted_pair(random.Random(7), 25)
    calls = Counter()

    def counted(name, kernel):
        def wrapper(p, q):
            calls[name] += 1
            return kernel(p, q)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_mm_q_ru", "_mm_h_u"):
            mp.setattr(lower_bound, name, counted(name, getattr(lower_bound, name)))
        trace = decide_lb(u, v, delta, trace=True).trace
    assert any(len(ps) > 1 for kind in "UDRL" for _, _, ps in trace.stored(kind))
    assert calls["_mm_q_ru"] > 0 and calls["_mm_h_u"] > 0, calls


def test_traced_decide_and_witness_memory():
    """A traced decide plus extract_witness on a planted 150x150 pair with
    denominators 1, 2 and 4 peaks at 6.4 MB under tracemalloc with the
    sweep recording rows (CPython 3.11); recording one dict entry per cell
    and kind peaked at 16.1 MB on the same pair.  The bound leaves a third
    of headroom."""
    u, v, delta = _planted_pair(random.Random(0), 150, (1, 2, 4))
    tracemalloc.start()
    try:
        decision = decide_lb(u, v, delta, trace=True)
        assert extract_witness(decision.trace) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_500_000, peak


# Witnesses frozen from the backward walk: (len u, len v, delta, witness u,
# witness v) for the first five feasible draws of test_pinned_witnesses.
PINNED_WITNESSES = [
    (1, 6, F(3), "-3/2", "-1 0 -2 1 -5/2 -3"),
    (6, 2, F(3, 2), "-3 -1/2 -1/2 -1 0 -1", "-3/2 0"),
    (6, 4, F(3), "5/2 -3/2 2 -3/2 -2 -1", "1 5/2 -1/2 -3/2"),
    (2, 4, F(5, 2), "-3 0", "-2 1 5/2 2"),
    (6, 6, F(3, 2), "-2 -3/2 -5/2 -3/2 -1/2 -3", "-2 1/2 -1 1/2 -1/2 -3"),
]


def test_pinned_witnesses():
    """The walk must keep picking the same lexicographically smallest
    points, not merely some valid witness."""
    out = decide_lb(FIG_U, FIG_V, F(1), trace=True)
    assert extract_witness(out.trace) == ((F(1, 2),), (F(-1, 2), F(3, 2)))
    rng = random.Random(2718)
    got = []
    while len(got) < len(PINNED_WITNESSES):
        u = random_interval_curve(rng, max_len=6)
        v = random_interval_curve(rng, max_len=6)
        delta = F(rng.randint(2, 6), 2)
        if len(u) + len(v) < 6:
            continue
        dec = decide_lb(u, v, delta, trace=True)
        if dec.feasible:
            wu, wv = extract_witness(dec.trace)
            got.append((len(u), len(v), delta, " ".join(map(str, wu)), " ".join(map(str, wv))))
    assert got == PINNED_WITNESSES


def test_propagated_piece_counts():
    rng = random.Random(3142)
    checked = 0
    for _ in range(60):
        u = random_interval_curve(rng)
        v = random_interval_curve(rng)
        delta = F(rng.randint(1, 3), 2)
        trace = decide_lb(u, v, delta, trace=True).trace
        for kind in "UD":
            for i, j, pieces in trace.stored(kind):
                limit = 1 if i == 1 else 2
                assert len(pieces) <= limit, (kind, i, j)
                checked += 1
        for kind in "RL":
            for i, j, pieces in trace.stored(kind):
                limit = 1 if j == 1 else 2
                assert len(pieces) <= limit, (kind, i, j)
                checked += 1
    assert checked > 200


def test_trace_cell_and_provenance():
    out = decide_lb(ic((0, 1), (2, 3)), ic((0, 2), (1, 3)), F(1), trace=True)
    trace = out.trace
    seen = set()
    for kind in "UDRL":
        for i, j, stored in trace.stored(kind):
            terms = trace.provenance(kind, i, j)
            for name, pieces in terms:
                seen.add(name)
                assert pieces and pieces == normalize_pieces(pieces)
            # the stored region is the union of its terms' pieces
            union = [p for _, pieces in terms for p in pieces]
            assert normalize_pieces(stored) == normalize_pieces(union), (kind, i, j)
    assert seen <= {"base", "U", "D", "R", "L"}
    assert "base" in seen
    assert trace.provenance("U", 99, 99) == ()


def test_trace_dump_writes_files(tmp_path):
    out = decide_lb(FIG_U, FIG_V, F(1), trace=True)
    out.trace.dump_to(str(tmp_path))
    for name in ("U.txt", "D.txt", "R.txt", "L.txt", "final.txt"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "final.txt").read_text().strip()


def test_dump_matches_the_public_region_dump(tmp_path):
    """dump_to writes, line for line, what Region.from_bounds of each
    stored region and each final part, divided by the scale and clipped to
    the box, dumps.  The seeded pairs hold empty and two-piece cells, final
    parts and, in the planted pairs, prime denominators; some cells keep
    their pieces in an order or a split that the dump normalizes."""
    rng = random.Random(4242)
    pairs = [
        (random_interval_curve(rng, max_len=8), random_interval_curve(rng, max_len=8), F(rng.randint(1, 8), 2))
        for _ in range(40)
    ]
    prime_rng = random.Random(11)
    pairs += [_planted_pair(prime_rng, prime_rng.randint(8, 14)) for _ in range(4)]
    seen = Counter()
    for k, (u, v, delta) in enumerate(pairs):
        trace = decide_lb(u, v, delta, trace=True).trace
        trace.dump_to(str(tmp_path / str(k)))

        def written(name):
            return (tmp_path / str(k) / name).read_text(encoding="utf-8").splitlines()

        for kind in "UDRL":
            want = []
            for i, j, pieces in trace.stored(kind):
                want += [f"{i} {j} : {line}" for line in scaled_region(trace, pieces).dump_lines()]
                seen["empty" if not pieces else "one" if len(pieces) == 1 else "two"] += 1
                seen["normalized by the dump"] += pieces != normalize_pieces(pieces)
            assert written(f"{kind}.txt") == want, (k, kind)
        want = [
            f"{kind} {i} {j} : {line}"
            for kind, i, j, pieces in trace.final_parts
            for line in scaled_region(trace, pieces).dump_lines()
        ]
        assert written("final.txt") == want, k
        seen["final"] += len(trace.final_parts)
    assert min(seen[key] for key in ("empty", "one", "two", "final", "normalized by the dump")) > 0, seen


def test_decision_agrees_with_sampled_oracle():
    rng = random.Random(3143)
    spec_hits = 0
    for _ in range(40):
        u = random_interval_curve(rng, max_len=3)
        v = random_interval_curve(rng, max_len=3)
        delta = F(rng.randint(1, 3), 2)
        inject = []
        for c in (u, v):
            for lo, hi in (p.span() for p in c.points):
                inject += [lo, hi, lo + delta, hi - delta, lo - delta, hi + delta]
        spec = EnumerationSpec(resolution=2, include_positions=tuple(inject))
        sampled = bound_oracle(u, v, "frechet", "lower", spec)
        decision = decide_lb(u, v, delta, trace=True)
        # the sampled minimum can only overshoot the true minimum
        if sampled <= delta:
            assert decision.feasible
            spec_hits += 1
        if decision.feasible:
            wu, wv = extract_witness(decision.trace)
            assert frechet_decide(list(wu), list(wv), delta)
            assert is_realisation(wu, u) and is_realisation(wv, v)
        else:
            assert sampled > delta
    assert spec_hits > 5


def test_compute_lb_sandwich():
    rng = random.Random(3144)
    tol = F(1, 64)
    for _ in range(25):
        u = random_interval_curve(rng, max_len=4)
        v = random_interval_curve(rng, max_len=4)
        got = compute_lb(u, v, tol)
        if got == 0:
            uspan, vspan = u.span(), v.span()
            assert max(uspan[0] - vspan[1], vspan[0] - uspan[1]) <= 0
            continue
        assert decide_lb(u, v, got).feasible
        if got - tol > 0:
            assert not decide_lb(u, v, got - tol).feasible


def test_compute_lb_identical_precise():
    # overlapping spans force a binary search, which bottoms out within tol
    u = ic(0, 3, 1)
    tol = F(1, 32)
    got = compute_lb(u, u, tol)
    assert 0 < got <= tol
    assert decide_lb(u, u, got).feasible
    # identical single points short-circuit to zero
    p = ic(2)
    assert compute_lb(p, p, tol) == 0


def _prime_den_curve(rng, max_len):
    pts = []
    for _ in range(rng.randint(1, max_len)):
        lo = F(rng.randint(-12, 12), rng.choice((1, 3, 5, 7, 11, 13)))
        pts.append(make_interval(lo, lo + F(rng.randint(0, 4), rng.choice((2, 3, 7)))))
    return UncertainCurve(pts)


def test_compute_lb_matches_fraction_bisection():
    """compute_lb scales once and bisects ints; the reference bisects
    Fractions over decide_lb.  They must agree exactly."""
    rng = random.Random(4021)
    for t in range(80):
        u = _prime_den_curve(rng, 4)
        v = _prime_den_curve(rng, 4)
        if t % 4 == 3:
            # a tolerance the bracket halves onto exactly
            (ulo, uhi), (vlo, vhi) = u.span(), v.span()
            tol = max(uhi - vlo, vhi - ulo) / 2 ** rng.randint(3, 9)
        else:
            tol = (F(1, 997), F(3, 1000), F(1, 64))[t % 4]
        assert compute_lb(u, v, tol) == compute_lb_reference(u, v, tol)
    # tol at or above the span max(5 - 7/3, 7/3 - 0) returns tol unprobed
    u, v = ic((0, 1), 5), ic(F(7, 3))
    span = F(8, 3)
    for tol in (span, span + F(1, 3), F(100)):
        assert compute_lb(u, v, tol) == compute_lb_reference(u, v, tol) == tol
    # a finite-set vertex is hulled with a warning, or rejected when strict
    w = UncertainCurve([Precise(F(1, 5)), make_set([F(-2), F(3, 7), F(4)]), Precise(F(2))])
    tol = F(1, 997)
    with pytest.warns(UserWarning):
        got = compute_lb(w, v, tol)
    with pytest.warns(UserWarning):
        assert got == compute_lb_reference(w, v, tol)
    with pytest.raises(ValueError):
        compute_lb(w, v, tol, strict=True)
    with pytest.raises(ValueError):
        compute_lb_reference(w, v, tol, strict=True)
    # delta* = 0: overlapping or identical interval curves, whose answer is
    # the first grid point, step
    tol = F(1, 997)
    for u, v in (
        (ic((0, 2)), ic((1, 3))),
        (ic((0, 3), (1, 2)), ic((0, 3), (1, 2))),
        (ic((F(-1, 3), 2), 1, (F(1, 2), F(5, 7))), ic((0, F(3, 2)), (F(2, 3), 1))),
    ):
        got = compute_lb(u, v, tol)
        assert got == compute_lb_reference(u, v, tol) == _grid_step(u, v, tol)
    # the value is half the distance 2 - 1 of the backtrack 2 -> 1, which
    # is no endpoint difference: only the halved list holds it
    a, b = [F(0), F(2), F(1), F(3)], [F(0), F(3)]
    assert frechet_value(a, b) == F(1, 2)
    u, v = ic(*a), ic((F(-1, 4), 0), 3)
    for tol in (F(1, 997), F(1, 10**6)):
        step = _grid_step(u, v, tol)
        got = compute_lb(u, v, tol)
        assert got == compute_lb_reference(u, v, tol) == math.ceil(F(1, 2) / step) * step
    # precise and finite-set vertices mixed with intervals: singleton sets
    # pass strict mode, wider ones are hulled with a warning
    rng = random.Random(4022)
    for t in range(40):
        u, v = _mixed_curve(rng, wide=t % 2), _mixed_curve(rng, wide=False)
        tol = (F(1, 997), F(1, 64))[t % 2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert compute_lb(u, v, tol) == compute_lb_reference(u, v, tol)
        if t % 2 == 0:
            assert compute_lb(u, v, tol, strict=True) == compute_lb_reference(u, v, tol, strict=True)


def _grid_step(u, v, tol):
    """The span halved until it is at most tol."""
    (ulo, uhi), (vlo, vhi) = u.span(), v.span()
    step = max(uhi - vlo, vhi - ulo)
    while step > tol:
        step /= 2
    return step


def _mixed_curve(rng, wide):
    pts = []
    for _ in range(rng.randint(1, 5)):
        den = rng.choice((1, 2, 3, 7))
        lo = F(rng.randint(-9, 9), den)
        kind = rng.randrange(3)
        if kind == 0:
            pts.append(Precise(lo))
        elif kind == 1:
            pts.append(make_interval(lo, lo + F(rng.randint(0, 4), rng.choice((1, 2, 3)))))
        elif wide:
            pts.append(make_set([lo, lo + F(rng.randint(1, 4), den), lo + F(rng.randint(5, 8), den)]))
        else:
            pts.append(FiniteSet((lo,)))
    return UncertainCurve(pts)


def test_compute_lb_equals_precise_frechet_value_on_its_grid():
    """On all-precise curves the lower bound is the Frechet distance, so
    compute_lb must return the first grid multiple of step at or above
    precise.frechet_value (and at least step): the candidate probes may
    neither stop short of it nor overshoot it."""
    rng = random.Random(4023)
    tols = (F(1, 997), F(3, 1000), F(1, 64), F(1, 10**6), F(1, 3))

    def curve():
        return [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(rng.randint(1, 6))]

    for t in range(400):
        a, b = curve(), curve()
        u, v = ic(*a), ic(*b)
        tol = tols[t % len(tols)]
        span = max(max(a) - min(b), max(b) - min(a), F(0))
        if span == 0:
            want = F(0)
        elif span <= tol:
            want = tol
        else:
            step = _grid_step(u, v, tol)
            want = max(1, math.ceil(frechet_value(a, b) / step)) * step
        assert compute_lb(u, v, tol) == want
    # the short cuts: one shared point, and a span within tol
    assert compute_lb(ic(F(2, 7)), ic(F(2, 7), F(2, 7)), F(1, 997)) == 0
    assert compute_lb(ic(0, F(1, 3)), ic(F(1, 7)), F(1, 2)) == F(1, 2)


def _alternating_pair(n, scale, shift, offset):
    """u alternates [0,1],[1,2] and v [1,2],[0,1], moved up by offset, all
    mapped by x -> scale*x + shift; the value is scale*offset (criterion 5's
    family, moved apart)."""
    u = [((i % 2) * scale + shift, (i % 2 + 1) * scale + shift) for i in range(n)]
    v = [((1 - i % 2 + offset) * scale + shift, (2 - i % 2 + offset) * scale + shift) for i in range(n)]
    return ic(*u), ic(*v)


def test_compute_lb_probe_count(monkeypatch):
    """The alternating family's value is its reach bound 3/8, so the first
    probe, at that bound, pins it in one sweep, where bisecting the tol
    grid takes k = 21 (step = span / 2^k)."""
    u, v = _alternating_pair(48, F(3, 4), F(-5, 4), F(1, 2))
    tol = F(1, 10**6)
    calls = []
    sweep = lower_bound._sweep

    def counted(*args):
        calls.append(args[2])
        return sweep(*args)

    monkeypatch.setattr(lower_bound, "_sweep", counted)
    got = compute_lb(u, v, tol)
    step = _grid_step(u, v, tol)
    assert step == F(15, 8) / 2 ** 21
    assert got == math.ceil(F(3, 8) / step) * step == F(6291465, 16777216)
    assert len(calls) == 1


def test_compute_lb_probes_frozen(monkeypatch):
    """The sweeps compute_lb runs on a zigzag against a segment, in order,
    frozen.  Scaled by 1024 (grid step 5/512, 10 scaled), the rank pivots 1
    and 1/2 are feasible and leave no candidate; the grid phase then probes
    g = 1 and g - 1 = 51, both infeasible, so the value is 52 steps."""
    u, v = ic(0, 4, 3, 3, 5), ic(0, 5)
    calls = []
    sweep = lower_bound._sweep

    def counted(*args):
        calls.append(args[2])
        return sweep(*args)

    monkeypatch.setattr(lower_bound, "_sweep", counted)
    assert compute_lb(u, v, F(1, 64)) == F(65, 128) == 52 * F(5, 512)
    assert calls == [1024, 512, 10, 510]


def _reach(u, v):
    return reach_bound([p.span() for p in u.points], [p.span() for p in v.points])


def test_reach_filter_rejects_only_infeasible_decisions():
    """Two-sided check of the untraced sweep's reach filter against the
    traced sweep, which never filters: on 2000 pairs of precise, interval,
    hulled finite-set and one-vertex curves both agree on every decision,
    and every delta below the reach bound L is infeasible.  Each pair with
    L > 0 is also decided at L itself, so a filter that rejects a feasible
    delta at the bound fails here."""
    rng = random.Random(5150)
    below = at_bound = one_vertex = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wide finite sets are hulled
        for t in range(2000):
            u, v = _mixed_curve(rng, wide=t % 2), _mixed_curve(rng, wide=t % 3 == 0)
            one_vertex += len(u) == 1 or len(v) == 1
            reach = _reach(u, v)
            deltas = {F(rng.randint(1, 12), rng.choice((1, 2, 3)))}
            if reach > 0:
                deltas |= {reach, reach * F(rng.randint(1, 6), 7)}
            for delta in deltas:
                fast = decide_lb(u, v, delta)
                traced = decide_lb(u, v, delta, trace=True)
                assert fast.feasible == traced.feasible, (u, v, delta)
                assert fast.final_region.equals(traced.final_region)
                if delta < reach:
                    assert not traced.feasible, (u, v, delta)
                    below += 1
                elif delta == reach and traced.feasible:
                    at_bound += 1
    assert below >= 1000 and at_bound >= 300 and one_vertex >= 500, (below, at_bound, one_vertex)


def test_compute_lb_at_and_above_the_reach_bound():
    """compute_lb probes the reach bound L first.  On pairs whose value is
    L and on pairs where L is infeasible it equals the Fraction bisection,
    and the traced sweep, which never filters, confirms that the result is
    the first feasible grid point."""
    rng = random.Random(5151)
    kinds = Counter()
    for t in range(200):
        if t % 2:
            u, v = _mixed_curve(rng, wide=False), _mixed_curve(rng, wide=False)
        else:
            # a zigzag against a segment near its ends: the backtracking,
            # not the reach bound, often sets the value
            k, o = rng.randint(3, 6), rng.randint(0, 2)
            u = ic(0, *(rng.randint(0, k) for _ in range(rng.randint(1, 4))), k)
            v = ic(o, k + rng.randint(-1, 1))
        tol = (F(1, 997), F(1, 64), F(3, 1000))[t % 3]
        got = compute_lb(u, v, tol)
        assert got == compute_lb_reference(u, v, tol), (u, v, tol)
        (ulo, uhi), (vlo, vhi) = u.span(), v.span()
        if max(uhi - vlo, vhi - ulo) <= tol:
            continue  # the short cuts, 0 or tol, probe nothing
        reach, step = _reach(u, v), _grid_step(u, v, tol)
        assert decide_lb(u, v, got, trace=True).feasible
        if got > step:
            assert not decide_lb(u, v, got - step, trace=True).feasible
        if reach == 0:
            kinds["zero"] += 1
        elif decide_lb(u, v, reach, trace=True).feasible:
            kinds["at"] += 1
            assert got == max(1, math.ceil(reach / step)) * step
        else:
            kinds["above"] += 1
            assert got > reach
    assert kinds["at"] >= 150 and kinds["above"] >= 15, kinds


def test_clip_box_covers_positions():
    box = clip_box_for(FIG_U, FIG_V, F(1))
    for curve in (FIG_U, FIG_V):
        lo, hi = curve.span()
        assert box.lo <= lo and hi <= box.hi


def test_scaled_clip_box_is_clip_box_for_times_the_scale():
    """decide_lb and compute_lb take the box on scaled ints (_clip_ints);
    it must be the Fraction reference box times the scale factor, finite
    sets hulled, at both scalings, and clip_box_for must be that box."""
    rng = random.Random(5)
    for t in range(200):
        u, v = _prime_den_curve(rng, 5), _prime_den_curve(rng, 5)
        if t % 2:
            xs = [F(rng.randint(-20, 20), rng.choice((1, 3, 7))) for _ in range(rng.randint(1, 4))]
            pts = list(u.points)
            pts[rng.randrange(len(pts))] = make_set(xs)
            u = UncertainCurve(pts)
        delta = F(rng.randint(1, 40), rng.choice((1, 2, 5, 11)))
        lo, hi = clip_box_reference(u, v, delta)
        assert clip_box_for(u, v, delta) == ClipBox(lo, hi)
        hulls = [p.span() for p in u.points + v.points]
        for factor in (1, 2):
            s, ((d,), *scaled) = scale_to_ints((delta,), *hulls, factor=factor)
            assert lower_bound._clip_ints(scaled, d, s) == (lo * s, hi * s)


# --- piece reducers ----------------------------------------------------------


def _generic_reduce(ps):
    out = []
    for p in ps:
        if any(bounds_subset(p, q) for q in out):
            continue
        out = [q for q in out if not bounds_subset(q, p)]
        out.append(p)
    return tuple(out)


def _rand_piece(rng):
    raw = close_bounds(
        *sorted((rng.randint(-6, 6), rng.randint(-6, 6))),
        *sorted((rng.randint(-6, 6), rng.randint(-6, 6))),
        *sorted((rng.randint(-12, 12), rng.randint(-12, 12))),
    )
    return raw


def test_reducers_match_generic_subset_filter():
    rng = random.Random(88)
    for _ in range(3000):
        ps = []
        while len(ps) < rng.randint(0, 4):
            p = _rand_piece(rng)
            if p is not None:
                ps.append(p)
        want = _generic_reduce(ps)
        got = _reduce(list(ps))
        # two or fewer survivors keep arrival order; more go through the
        # full merge, which sorts and may coalesce pieces
        if len(want) <= 2:
            assert got == want
        else:
            assert got == normalize_pieces(want)
        if len(ps) == 2:
            assert _two(*ps) == want
        if len(ps) == 3:
            assert _three(*ps) == (want if len(want) <= 2 else normalize_pieces(want))
