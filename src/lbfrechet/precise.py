"""Distances between precise 1D polygonal curves, all exact.

Continuous Frechet via free-space interval propagation, discrete Frechet
via the classic coupling recurrence, weak Frechet through the prefix-image
recurrence (run on the curves and on their reversals), and the discrete
weak variant as a bottleneck path in the vertex-pair grid.

Every metric runs on ints: the public function scales its inputs once by
the common denominator (model.scale_to_ints), runs an integer core and
converts back with Fraction(x, s), so results are still Fractions.  The
cores (_frechet_value, _discrete_frechet, _weak, _discrete_weak) are
scale-free, so the oracle scales a whole candidate grid once and calls
them directly; a result x of theirs means x / s.  Next to each value core
sits a decision core (_decide, _discrete_decide, _weak_decide,
_discrete_weak_decide) answering "is the value <= d?" on the same ints,
which the oracle uses to skip pairs that cannot beat its best.  CORES
names each variant's value core, decision core and scale factor; it is
the one place a variant name meets its cores.  Float infinity appears
only as an unreachable sentinel in min/max chains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from typing import Sequence

from .model import midpoint, narrow, scale_to_ints

INF = float("inf")


def _dist_to_interval(x: int, lo: int, hi: int) -> int:
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0


def _scaled(a, b, *extra, factor: int = 1) -> tuple[int, list[list[int]]]:
    """Check both curves and scale them, and any extra values, to ints:
    (s, [a, b, *extra]) with every value times s."""
    a = [Fraction(x) for x in a]
    b = [Fraction(y) for y in b]
    if not a or not b:
        raise ValueError("curves need at least one vertex")
    return scale_to_ints(a, b, *extra, factor=factor)


def _decide(a: list[int], b: list[int], d: int) -> bool:
    """Alt & Godau (1995) reachability on scaled ints: is the continuous
    Frechet distance <= d?  Intervals are kept in progress coordinates
    along their edge, sign*y from start to end (-y on a descending edge,
    one point on a zero-length one): vertex x meets an edge in the free
    part [max(sign*x - d, start), min(sign*x + d, end)], and t = 0 and
    t = 1 become start and end, so no division is needed."""
    m, n = len(a), len(b)
    if abs(a[0] - b[0]) > d or abs(a[-1] - b[-1]) > d:
        return False
    if m == 1:
        return all(abs(a[0] - y) <= d for y in b)
    if n == 1:
        return all(abs(x - b[0]) <= d for x in a)
    ea, eb = (
        [(1, p, q) if q >= p else (-1, -p, -q) for p, q in zip(xs, xs[1:])]
        for xs in (a, b)
    )

    def walk(x: int, edges) -> list:
        # reachable intervals straight along one axis from the start
        out = [None] * len(edges)
        for k, (sg, st, en) in enumerate(edges):
            c = x if sg > 0 else -x
            lo = c - d if c - d > st else st
            hi = c + d if c + d < en else en
            if lo > st or lo > hi:
                break
            out[k] = (lo, hi)
            if hi < en:
                break
        return out

    # reachable intervals: lr[j] on the left boundary of cell (column, j),
    # bb[i] on the bottom boundary of cell (i, 0)
    lr = walk(a[0], eb)
    bb = walk(b[0], ea)
    # the top boundaries of a row meet b's vertices 1..n-1 as sign*y +- d
    bpos = [(y - d, y + d) for y in b[1:]]
    bneg = [(-y - d, -y + d) for y in b[1:]]
    top_last = None
    for i in range(m - 1):
        sa, sta, ena = ea[i]
        x = a[i + 1]
        rpos, rneg = (x - d, x + d), (-x - d, -x + d)
        tops = bpos if sa > 0 else bneg
        new_lr = [None] * (n - 1)
        br = bb[i]
        for j in range(n - 1):
            cur_l = lr[j]
            if cur_l is None and br is None:
                continue
            sb, stb, enb = eb[j]
            # right, then top boundary: clipped below by the opposite side's
            # interval only when the cell is entered from that side alone
            lo, hi = rpos if sb > 0 else rneg
            lo = lo if lo > stb else stb
            hi = hi if hi < enb else enb
            if br is None and cur_l[0] > lo:
                lo = cur_l[0]
            if lo <= hi:
                new_lr[j] = (lo, hi)
            lo, hi = tops[j]
            lo = lo if lo > sta else sta
            hi = hi if hi < ena else ena
            if cur_l is None and br[0] > lo:
                lo = br[0]
            br = (lo, hi) if lo <= hi else None
        top_last = br
        lr = new_lr
    right_last = lr[n - 2]
    if right_last is not None and right_last[1] == eb[n - 2][2]:
        return True
    return top_last is not None and top_last[1] == ea[m - 2][2]


def frechet_decide(a: Sequence[Fraction], b: Sequence[Fraction], delta) -> bool:
    """Is the continuous Frechet distance of the two curves <= delta?"""
    delta = Fraction(delta)
    _, (ai, bi, (d,)) = _scaled(a, b, (delta,))
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return _decide(ai, bi, d)


def _frechet_value(a: Sequence[int], b: Sequence[int]) -> int:
    """Smallest critical value the decision accepts.  Inputs must be
    scaled by an even factor (every value even), so halves are ints.  The
    candidates come from each curve's distinct values: a repeated value
    adds no new distance, and equal values give 0, a candidate anyway."""
    sa, sb = set(a), set(b)
    cands = {0}
    cands.update(abs(x - y) for x in sa for y in sb)
    for xs in (sa, sb):
        cands.update(abs(x - y) // 2 for x, y in combinations(xs, 2))
    ordered = sorted(cands)
    _, k = narrow(lambda k: _decide(a, b, ordered[k]), midpoint, -1, len(ordered) - 1)
    return ordered[k]


def frechet_value(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """The continuous Frechet distance: smallest feasible critical value.

    In one dimension every critical value is a vertex-vertex distance or
    half a vertex-vertex distance within one curve, so we binary-search
    that candidate set with the decision procedure.  Scaling by twice the
    common denominator keeps the halves integral.
    """
    s, (ai, bi) = _scaled(a, b, factor=2)
    return Fraction(_frechet_value(ai, bi), s)


def _discrete_frechet(a: Sequence[int], b: Sequence[int]) -> int:
    """Coupling recurrence of Eiter & Mannila (1994), quadratic time, on
    rolling rows.  The first row and column have one predecessor, so they
    are unrolled, and every other cell takes a few plain comparisons."""
    prev = list(accumulate((abs(a[0] - y) for y in b), max))
    y0, rest = b[0], b[1:]
    for x in a[1:]:
        diag = prev[0]
        left = max(diag, abs(x - y0))
        cur = [left]
        for up, y in zip(prev[1:], rest):
            reach = up if up < left else left
            if diag < reach:
                reach = diag
            d = x - y if x > y else y - x
            left = reach if reach > d else d
            cur.append(left)
            diag = up
        prev = cur
    return prev[-1]


def _discrete_decide(a: Sequence[int], b: Sequence[int], d: int) -> bool:
    """Is the discrete Frechet distance <= d?  The coupling recurrence on
    booleans, row by row, giving up on a row with no reachable pair."""
    n = len(b)
    prev = [False] * n
    for i, x in enumerate(a):
        cur = [False] * n
        for j, y in enumerate(b):
            cur[j] = -d <= x - y <= d and (
                (i == 0 and j == 0) or prev[j] or (j > 0 and (cur[j - 1] or prev[j - 1]))
            )
        if not any(cur):
            return False
        prev = cur
    return prev[-1]


def discrete_frechet(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """The discrete Frechet distance (coupling recurrence on ints)."""
    s, (ai, bi) = _scaled(a, b)
    return Fraction(_discrete_frechet(ai, bi), s)


def _bottleneck(a: Sequence[int], b: Sequence[int], aimg: list, bimg: list) -> int:
    """Forward bottleneck recurrence: entry (i, j) is the cheapest max-cost
    of interleaving the first i vertices of a with the first j of b, where
    reaching vertex i of a costs a[i - 1]'s distance to the image bimg[j]
    of b, and reaching vertex j of b costs b[j - 1]'s distance to aimg[i]."""
    m, n = len(a), len(b)
    prev = [INF] * n
    for i in range(m):
        cur = [INF] * n
        for j in range(n):
            if i == 0 and j == 0:
                cur[0] = abs(a[0] - b[0])
                continue
            best = INF
            if i > 0 and prev[j] is not INF:
                pen = _dist_to_interval(a[i - 1], *bimg[j])
                cand = prev[j] if prev[j] > pen else pen
                if cand < best:
                    best = cand
            if j > 0 and cur[j - 1] is not INF:
                pen = _dist_to_interval(b[j - 1], *aimg[i])
                cand = cur[j - 1] if cur[j - 1] > pen else pen
                if cand < best:
                    best = cand
            cur[j] = best
        prev = cur
    return prev[n - 1]


def _bottleneck_decide(a: Sequence[int], b: Sequence[int], aimg: list, bimg: list, d: int) -> bool:
    """Is _bottleneck(a, b, aimg, bimg) <= d?  The same recurrence on
    booleans: an entry is reachable when a neighbour is and its step's
    penalty is at most d."""
    m, n = len(a), len(b)
    prev = [False] * n
    for i in range(m):
        cur = [False] * n
        lo, hi = aimg[i]
        for j in range(n):
            if i == 0 and j == 0:
                cur[0] = -d <= a[0] - b[0] <= d
            else:
                cur[j] = (
                    prev[j] and bimg[j][0] - d <= a[i - 1] <= bimg[j][1] + d
                ) or (j > 0 and cur[j - 1] and lo - d <= b[j - 1] <= hi + d)
        prev = cur
    return prev[-1]


def _prefix_hulls(xs: Sequence[int]) -> list[tuple[int, int]]:
    out = []
    lo = hi = xs[0]
    for x in xs:
        lo = lo if lo <= x else x
        hi = hi if hi >= x else x
        out.append((lo, hi))
    return out


def _r_dp(a: Sequence[int], b: Sequence[int]) -> int:
    return _bottleneck(a, b, _prefix_hulls(a), _prefix_hulls(b))


def r_dp(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Forward bottleneck recurrence over prefix images: advancing a vertex
    of one curve costs its predecessor's distance to the image of the other
    curve's processed prefix."""
    s, (ai, bi) = _scaled(a, b)
    return Fraction(_r_dp(ai, bi), s)


def rm_dp(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Variant of r_dp whose penalties use only the last processed edge of
    the other curve (its image degenerates to the first vertex when no
    edge has been processed yet)."""
    s, (ai, bi) = _scaled(a, b)

    def edge_images(xs):
        return [(xs[0], xs[0])] + [(p, q) if p <= q else (q, p) for p, q in zip(xs, xs[1:])]

    return Fraction(_bottleneck(ai, bi, edge_images(ai), edge_images(bi)), s)


def _weak(a: Sequence[int], b: Sequence[int]) -> int:
    """The forward recurrence run from both ends, worse of the two."""
    fwd = _r_dp(a, b)
    bwd = _r_dp(a[::-1], b[::-1])
    return fwd if fwd >= bwd else bwd


def _weak_decide(a: Sequence[int], b: Sequence[int], d: int) -> bool:
    """Is _weak(a, b) <= d?  Both directions of the boolean recurrence."""
    return all(
        _bottleneck_decide(xs, ys, _prefix_hulls(xs), _prefix_hulls(ys), d)
        for xs, ys in ((a, b), (a[::-1], b[::-1]))
    )


def weak_frechet_1d(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Weak Frechet distance on the line: the forward recurrence run from
    both ends, worse of the two."""
    s, (ai, bi) = _scaled(a, b)
    return Fraction(_weak(ai, bi), s)


# grid steps of each adjacency
_STEPS = {
    4: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    8: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def _check_adjacency(adjacency: int) -> None:
    if adjacency not in _STEPS:
        raise ValueError(f"adjacency must be 4 or 8, got {adjacency}")


def _discrete_weak(a: Sequence[int], b: Sequence[int], adjacency: int) -> int:
    """The smallest spot weight whose flood fill connects the corners."""
    ordered = sorted({abs(x - y) for x in a for y in b})
    _, k = narrow(
        lambda k: _discrete_weak_decide(a, b, ordered[k], adjacency), midpoint, -1, len(ordered) - 1
    )
    return ordered[k]


def _discrete_weak_decide(a: Sequence[int], b: Sequence[int], d: int, adjacency: int) -> bool:
    """Is _discrete_weak(a, b, adjacency) <= d?  A flood fill from the
    first corner over the spots of weight <= d."""
    m, n = len(a), len(b)
    if abs(a[0] - b[0]) > d or abs(a[-1] - b[-1]) > d:
        return False
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        if i == m - 1 and j == n - 1:
            return True
        for di, dj in _STEPS[adjacency]:
            ii, jj = i + di, j + dj
            if 0 <= ii < m and 0 <= jj < n and (ii, jj) not in seen and -d <= a[ii] - b[jj] <= d:
                seen.add((ii, jj))
                stack.append((ii, jj))
    return False


def discrete_weak(
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    adjacency: int = 8,
) -> Fraction:
    """Bottleneck path value between corners of the vertex-pair grid.

    Spots are vertex pairs weighted by their distance; steps move to grid
    neighbours (4- or 8-adjacency).  Computed by bisecting the spot
    weights with a flood fill over the spots of weight at most each.
    """
    s, (ai, bi) = _scaled(a, b)
    _check_adjacency(adjacency)
    return Fraction(_discrete_weak(ai, bi, adjacency), s)


# variant name -> (value core, decision core, scale factor of its inputs);
# the discrete-weak cores take the adjacency as their last argument
CORES = {
    "frechet": (_frechet_value, _decide, 2),
    "discrete": (_discrete_frechet, _discrete_decide, 1),
    "weak": (_weak, _weak_decide, 1),
    "discrete-weak": (_discrete_weak, _discrete_weak_decide, 1),
}
