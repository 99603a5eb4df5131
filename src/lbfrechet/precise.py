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
them directly; a result x of theirs means x / s.  Each core takes an
optional bracket (lo, hi]: it returns the exact value when that lies
inside and otherwise some int on the same side, so it may stop early
("value <= d?" is core(a, b, hi=d) <= d).  The recurrences stop once a
whole row exceeds hi; the continuous core decides at lo and at hi, then
narrows (model.narrow) with probes model.rank_pivot picks by rank among
vertex distances and halves; the discrete weak core is one bottleneck
search.  The continuous decision _decide also serves frechet_decide.
CORES names each variant's value core and scale factor; it is the one
place a variant name meets its core.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate
from typing import Sequence

from .model import narrow, rank_pivot, scale_to_ints


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
        # reachable intervals straight along one axis from the start.  Each
        # edge reached starts within d of x: the first as the first vertices
        # are checked above, each later one as the walk goes on only past
        # an edge reached to its end.  So every interval starts at st.
        out = [None] * len(edges)
        for k, (sg, st, en) in enumerate(edges):
            c = x if sg > 0 else -x
            hi = c + d if c + d < en else en
            out[k] = (st, hi)
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


def _frechet_value(a: Sequence[int], b: Sequence[int], lo: int = -1, hi: int | None = None) -> int:
    """Smallest critical value the decision accepts, in the bracket (lo,
    hi] (see the module docstring).  Inputs must be scaled by an even
    factor (every value even), so halves are ints.  It decides at lo and
    at hi first (a bracket one wide then holds only hi), then narrows
    with rank pivots (model.rank_pivot) among the differences of the
    distinct values of both curves and of their halves, 0 included: a
    superset of the critical values, whose smallest accepted member is
    the distance, which is at most the span."""
    if lo >= 0 and _decide(a, b, lo):
        return lo
    if hi is not None:
        if not _decide(a, b, hi):
            return hi + 1
        if hi - lo == 1:
            return hi
    ends = sorted({*a, *b})
    top = ends[-1] - ends[0] if hi is None else min(hi, ends[-1] - ends[0])
    pick = partial(rank_pivot, (ends, [x // 2 for x in ends]))
    return narrow(lambda d: _decide(a, b, d), pick, lo, top)[1]


def frechet_value(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """The continuous Frechet distance: smallest feasible critical value.

    In one dimension every critical value is a vertex-vertex distance or
    half a vertex-vertex distance within one curve, so the decision
    procedure narrows a bracket with probes picked by rank among those
    distances and halves, without listing them.  Scaling by twice the
    common denominator keeps the halves integral.
    """
    s, (ai, bi) = _scaled(a, b, factor=2)
    return Fraction(_frechet_value(ai, bi), s)


def _discrete_frechet(a: Sequence[int], b: Sequence[int], lo: int = -1, hi: int | None = None) -> int:
    """Coupling recurrence of Eiter & Mannila (1994), quadratic time, on
    rolling rows.  The first row and column have one predecessor, so they
    are unrolled, and every other cell takes a few plain comparisons.
    Entries never fall along a coupling and every coupling passes each
    row, so once a whole row exceeds hi its least entry is an answer above
    the bracket; lo is not used."""
    x = a[0]
    prev = list(accumulate([x - y if x > y else y - x for y in b], max))
    y0, rest = b[0], b[1:]
    for x in a[1:]:
        if hi is not None and (least := min(prev)) > hi:
            return least
        diag = prev[0]
        d = x - y0 if x > y0 else y0 - x
        left = diag if diag > d else d
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


def discrete_frechet(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """The discrete Frechet distance (coupling recurrence on ints)."""
    s, (ai, bi) = _scaled(a, b)
    return Fraction(_discrete_frechet(ai, bi), s)


def _bottleneck(a: Sequence[int], b: Sequence[int], aimg: list, bimg: list, hi: int | None = None) -> int:
    """Forward bottleneck recurrence: entry (i, j) is the cheapest max-cost
    of interleaving the first i vertices of a with the first j of b, where
    reaching vertex i of a costs a[i - 1]'s distance to the image bimg[j]
    of b, and reaching vertex j of b costs b[j - 1]'s distance to aimg[i].
    The first row has one predecessor, so it is unrolled; on rolling rows,
    as in _discrete_frechet, it stops once a whole row exceeds hi."""
    p, q = aimg[0]
    prev = list(accumulate(
        [p - y if y < p else y - q if y > q else 0 for y in b[:-1]], max, initial=abs(a[0] - b[0])
    ))
    (p0, q0), rest = bimg[0], bimg[1:]
    for x, (alo, ahi) in zip(a, aimg[1:]):
        if hi is not None and (least := min(prev)) > hi:
            return least
        # x is a[i - 1] and (alo, ahi) is aimg[i]; below, (p, q) is
        # bimg[j] and y is b[j - 1]
        g = p0 - x if x < p0 else x - q0 if x > q0 else 0
        left = prev[0] if prev[0] > g else g
        cur = [left]
        for up, (p, q), y in zip(prev[1:], rest, b):
            g = p - x if x < p else x - q if x > q else 0
            if up < g:
                up = g
            g = alo - y if y < alo else y - ahi if y > ahi else 0
            if left < g:
                left = g
            if up < left:
                left = up
            cur.append(left)
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


def _r_dp(a: Sequence[int], b: Sequence[int], hi: int | None = None) -> int:
    return _bottleneck(a, b, _prefix_hulls(a), _prefix_hulls(b), hi)


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


def _weak(a: Sequence[int], b: Sequence[int], lo: int = -1, hi: int | None = None) -> int:
    """The forward recurrence run from both ends, worse of the two; the
    backward pass is skipped once the forward one exceeds hi, and lo is
    not used."""
    fwd = _r_dp(a, b, hi)
    if hi is not None and fwd > hi:
        return fwd
    bwd = _r_dp(a[::-1], b[::-1], hi)
    return fwd if fwd >= bwd else bwd


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


def _discrete_weak(
    a: Sequence[int], b: Sequence[int], adjacency: int, lo: int = -1, hi: int | None = None
) -> int:
    """The smallest level whose flood fill over the spots of weight at
    most the level connects the corners, in one search (a maximum-capacity
    path, Pollack 1960).  Every path holds both corners, so the level
    starts at their larger weight, or at lo if that is larger: a value at
    or below lo then comes back as lo.  The fill floods the spots at or
    below the level with a stack and parks the others on a heap; when the
    stack empties, the level rises to the least parked weight, whose spots
    are released.  The search returns the level once it reaches the far
    corner.  Spots heavier than hi are never parked, so once the level
    would pass hi the search returns a value above it."""
    m, n = len(a), len(b)
    # without hi, top is the largest weight, so no spot is dropped
    top = max(max(a) - min(b), max(b) - min(a)) if hi is None else hi
    level = max(abs(a[0] - b[0]), abs(a[-1] - b[-1]), lo)
    if level > top:
        return level
    steps = _STEPS[adjacency]
    seen = {(0, 0)}
    stack = [(0, 0)]
    heap: list = []
    while True:
        while stack:
            i, j = stack.pop()
            if i == m - 1 and j == n - 1:
                return level
            for di, dj in steps:
                ii, jj = i + di, j + dj
                if (
                    0 <= ii < m and 0 <= jj < n and (ii, jj) not in seen
                    and (w := abs(a[ii] - b[jj])) <= top
                ):
                    seen.add((ii, jj))
                    if w <= level:
                        stack.append((ii, jj))
                    else:
                        heappush(heap, (w, ii, jj))
        if not heap:
            return top + 1
        level = heap[0][0]
        while heap and heap[0][0] == level:
            stack.append(heappop(heap)[1:])


def discrete_weak(
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    adjacency: int = 8,
) -> Fraction:
    """Bottleneck path value between corners of the vertex-pair grid.

    Spots are vertex pairs weighted by their distance; steps move to grid
    neighbours (4- or 8-adjacency).  Computed in one search that floods
    the spots at or below a level and raises the level to the least
    weight left waiting when the fill is stuck.
    """
    s, (ai, bi) = _scaled(a, b)
    _check_adjacency(adjacency)
    return Fraction(_discrete_weak(ai, bi, adjacency), s)


# variant name -> (value core, scale factor of its inputs); every core
# takes a bracket lo=, hi= and the discrete-weak one the adjacency as its
# third argument
CORES = {
    "frechet": (_frechet_value, 2),
    "discrete": (_discrete_frechet, 1),
    "weak": (_weak, 1),
    "discrete-weak": (_discrete_weak, 1),
}
