"""Distances between precise 1D polygonal curves, all exact.

Continuous Frechet via free-space interval propagation, discrete Frechet
via the classic coupling recurrence, weak Frechet through the prefix-image
recurrence (run on the curves and on their reversals), and the discrete
weak variant as a bottleneck path in the vertex-pair grid.

Continuous and discrete Frechet run on ints: each call scales its inputs
once by the common denominator (model.scale_to_ints) and converts back at
the end, so results are still Fractions.  Float infinity appears only as
an unreachable sentinel in min/max chains.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import scale_to_ints

INF = float("inf")


def _dist_to_interval(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return Fraction(0)


def _check_curves(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(y) for y in b]
    if not a or not b:
        raise ValueError("curves need at least one vertex")
    return a, b


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
    a, b = _check_curves(a, b)
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    _, (ai, bi, (d,)) = scale_to_ints(a, b, (delta,))
    return _decide(ai, bi, d)


def frechet_value(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """The continuous Frechet distance: smallest feasible critical value.

    In one dimension every critical value is a vertex-vertex distance or
    half a vertex-vertex distance within one curve, so we binary-search
    that candidate set with the decision procedure.  Scaling by twice the
    common denominator keeps the halves integral.
    """
    a, b = _check_curves(a, b)
    s, (ai, bi) = scale_to_ints(a, b, factor=2)
    cands = {0}
    cands.update(abs(x - y) for x in ai for y in bi)
    for xs in (ai, bi):
        for i in range(len(xs)):
            for k in range(i + 1, len(xs)):
                cands.add(abs(xs[i] - xs[k]) // 2)
    ordered = sorted(cands)
    lo, hi = 0, len(ordered) - 1
    if _decide(ai, bi, ordered[0]):
        return Fraction(ordered[0], s)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _decide(ai, bi, ordered[mid]):
            hi = mid
        else:
            lo = mid
    return Fraction(ordered[hi], s)


def discrete_frechet(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Classic coupling recurrence, quadratic time, rolling rows."""
    a, b = _check_curves(a, b)
    s, (a, b) = scale_to_ints(a, b)
    m, n = len(a), len(b)
    prev = [INF] * n
    for i in range(m):
        cur = [INF] * n
        for j in range(n):
            d = abs(a[i] - b[j])
            if i == 0 and j == 0:
                best = d
            else:
                reach = min(
                    prev[j] if i > 0 else INF,
                    cur[j - 1] if j > 0 else INF,
                    prev[j - 1] if i > 0 and j > 0 else INF,
                )
                best = reach if reach > d else d
            cur[j] = best
        prev = cur
    return Fraction(prev[n - 1], s)


def _bottleneck(a: list, b: list, aimg: list, bimg: list) -> Fraction:
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


def r_dp(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Forward bottleneck recurrence over prefix images: advancing a vertex
    of one curve costs its predecessor's distance to the image of the other
    curve's processed prefix."""
    a, b = _check_curves(a, b)

    def prefix_hulls(xs):
        out = []
        lo = hi = xs[0]
        for x in xs:
            lo = lo if lo <= x else x
            hi = hi if hi >= x else x
            out.append((lo, hi))
        return out

    return _bottleneck(a, b, prefix_hulls(a), prefix_hulls(b))


def rm_dp(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Variant of r_dp whose penalties use only the last processed edge of
    the other curve (its image degenerates to the first vertex when no
    edge has been processed yet)."""
    a, b = _check_curves(a, b)

    def edge_images(xs):
        return [(xs[0], xs[0])] + [(p, q) if p <= q else (q, p) for p, q in zip(xs, xs[1:])]

    return _bottleneck(a, b, edge_images(a), edge_images(b))


def weak_frechet_1d(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Weak Frechet distance on the line: the forward recurrence run from
    both ends, worse of the two."""
    a, b = _check_curves(a, b)
    fwd = r_dp(a, b)
    bwd = r_dp(a[::-1], b[::-1])
    return fwd if fwd >= bwd else bwd


def discrete_weak(
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    adjacency: int = 8,
) -> Fraction:
    """Bottleneck path value between corners of the vertex-pair grid.

    Spots are vertex pairs weighted by their distance; steps move to grid
    neighbours (4- or 8-adjacency).  Computed by activating spots in
    weight order with a union-find until the corners connect.
    """
    a, b = _check_curves(a, b)
    if adjacency not in (4, 8):
        raise ValueError(f"adjacency must be 4 or 8, got {adjacency}")
    m, n = len(a), len(b)
    if m == 1 and n == 1:
        return abs(a[0] - b[0])
    weights = sorted(
        (abs(a[i] - b[j]), i * n + j) for i in range(m) for j in range(n)
    )
    parent = list(range(m * n))
    active = [False] * (m * n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if adjacency == 4:
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    else:
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
    start, goal = 0, m * n - 1
    k = 0
    total = len(weights)
    while k < total:
        w = weights[k][0]
        while k < total and weights[k][0] == w:
            spot = weights[k][1]
            i, j = divmod(spot, n)
            active[spot] = True
            for di, dj in steps:
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < n and active[ii * n + jj]:
                    ra, rb = find(spot), find(ii * n + jj)
                    if ra != rb:
                        parent[ra] = rb
            k += 1
        if active[start] and active[goal] and find(start) == find(goal):
            return w
    raise AssertionError("corner spots never connected")
