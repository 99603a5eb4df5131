"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with a different algorithmic idea
than the production code: recursion instead of tabulation, graph search
instead of interval propagation, sampling instead of closed-form bounds.
Keep it that way; a shared shortcut would make the comparisons vacuous.
All functions expect exact scalars (Fraction mixes fine with int).
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from fractions import Fraction


# ---------------------------------------------------------------------------
# Discrete Frechet via plain recursion over couplings
# ---------------------------------------------------------------------------


def discrete_frechet_recursive(a, b):
    """min over monotone couplings of the max pairwise distance, by the
    classic recurrence with memoisation on index pairs only."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        d = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return d
        best = None
        for pi, pj in ((i - 1, j), (i, j - 1), (i - 1, j - 1)):
            if pi >= 0 and pj >= 0:
                cand = go(pi, pj)
                if best is None or cand < best:
                    best = cand
        return max(d, best)

    return go(len(a) - 1, len(b) - 1)


def discrete_frechet_couplings(a, b):
    """Literal enumeration of every monotone coupling.  Exponential; keep
    curves at 5 or fewer vertices each."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    m, n = len(a), len(b)
    best = None
    stack = [(0, 0, abs(a[0] - b[0]))]
    while stack:
        i, j, worst = stack.pop()
        if best is not None and worst >= best:
            continue
        if i == m - 1 and j == n - 1:
            if best is None or worst < best:
                best = worst
            continue
        for ni, nj in ((i + 1, j), (i, j + 1), (i + 1, j + 1)):
            if ni < m and nj < n:
                stack.append((ni, nj, max(worst, abs(a[ni] - b[nj]))))
    return best


# ---------------------------------------------------------------------------
# Discrete weak Frechet via threshold-ordered BFS
# ---------------------------------------------------------------------------


def discrete_weak_bfs(a, b, adjacency=8):
    """Smallest threshold t such that (0,0) and (m-1,n-1) are connected in
    the grid graph of cells with |a_i - b_j| <= t.  Tries the candidate
    thresholds in increasing order with a fresh BFS each time."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    m, n = len(a), len(b)
    if adjacency == 8:
        steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    candidates = sorted({abs(x - y) for x in a for y in b})
    for t in candidates:
        if abs(a[0] - b[0]) > t or abs(a[-1] - b[-1]) > t:
            continue
        seen = {(0, 0)}
        dq = deque(seen)
        while dq:
            i, j = dq.popleft()
            for di, dj in steps:
                ni, nj = i + di, j + dj
                if 0 <= ni < m and 0 <= nj < n and (ni, nj) not in seen:
                    if abs(a[ni] - b[nj]) <= t:
                        seen.add((ni, nj))
                        dq.append((ni, nj))
        if (m - 1, n - 1) in seen:
            return t
    raise AssertionError("threshold sweep exhausted without connectivity")


# ---------------------------------------------------------------------------
# Continuous weak Frechet on precise 1D curves via free-space cell graph
# ---------------------------------------------------------------------------


def _seg_interval(p, q):
    return (p, q) if p <= q else (q, p)


def _interval_dist(lo1, hi1, lo2, hi2):
    if hi1 < lo2:
        return lo2 - hi1
    if hi2 < lo1:
        return lo1 - hi2
    return Fraction(0)


def _point_interval_dist(x, lo, hi):
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return Fraction(0)


def weak_frechet_cells_decide(a, b, delta):
    """Weak Frechet decision by BFS over free-space cells: a cell is open
    when the two segments come within delta, and two adjacent cells
    connect when the shared edge contains a free point (vertex within
    delta of the other segment)."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    delta = Fraction(delta)
    if abs(a[0] - b[0]) > delta or abs(a[-1] - b[-1]) > delta:
        return False
    if len(a) == 1 and len(b) == 1:
        return True
    if len(a) == 1:
        return all(abs(a[0] - y) <= delta for y in b)
    if len(b) == 1:
        return all(abs(x - b[0]) <= delta for x in a)
    m, n = len(a) - 1, len(b) - 1

    def cell_open(i, j):
        return _interval_dist(*_seg_interval(a[i], a[i + 1]),
                              *_seg_interval(b[j], b[j + 1])) <= delta

    def hedge_free(i, j):
        # vertical edge between cells (i-1,j) and (i,j): vertex a_i vs segment b_j
        return _point_interval_dist(a[i], *_seg_interval(b[j], b[j + 1])) <= delta

    def vedge_free(i, j):
        # horizontal edge between cells (i,j-1) and (i,j): vertex b_j vs segment a_i
        return _point_interval_dist(b[j], *_seg_interval(a[i], a[i + 1])) <= delta

    if not (cell_open(0, 0) and cell_open(m - 1, n - 1)):
        return False
    seen = {(0, 0)}
    dq = deque(seen)
    while dq:
        i, j = dq.popleft()
        if (i, j) == (m - 1, n - 1):
            return True
        moves = (
            (i + 1, j, lambda: hedge_free(i + 1, j)),
            (i - 1, j, lambda: hedge_free(i, j)),
            (i, j + 1, lambda: vedge_free(i, j + 1)),
            (i, j - 1, lambda: vedge_free(i, j)),
        )
        for ni, nj, edge_ok in moves:
            if 0 <= ni < m and 0 <= nj < n and (ni, nj) not in seen:
                if cell_open(ni, nj) and edge_ok():
                    seen.add((ni, nj))
                    dq.append((ni, nj))
    return False


def weak_frechet_cells_value(a, b):
    """Exact weak Frechet value: smallest candidate threshold accepted by
    the cell-graph decision.  Candidates are the vertex-vertex and
    vertex-segment distances, which cover every bottleneck type."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    cands = {Fraction(0)}
    for x in a:
        for y in b:
            cands.add(abs(x - y))
    for x in a:
        for j in range(len(b) - 1):
            cands.add(_point_interval_dist(x, *_seg_interval(b[j], b[j + 1])))
    for y in b:
        for i in range(len(a) - 1):
            cands.add(_point_interval_dist(y, *_seg_interval(a[i], a[i + 1])))
    for t in sorted(cands):
        if weak_frechet_cells_decide(a, b, t):
            return t
    raise AssertionError("candidate sweep exhausted for weak frechet value")


# ---------------------------------------------------------------------------
# Continuous (strong) Frechet decision for 1D precise curves, by the
# textbook free-space interval propagation written against segments
# parameterised over [0, 1].  Kept separate from the production module,
# which phrases everything through reach intervals on cell borders.
# ---------------------------------------------------------------------------


def frechet_decide_reference(a, b, delta):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    delta = Fraction(delta)
    if abs(a[0] - b[0]) > delta or abs(a[-1] - b[-1]) > delta:
        return False
    if len(a) == 1:
        return all(abs(a[0] - y) <= delta for y in b)
    if len(b) == 1:
        return all(abs(x - b[0]) <= delta for x in a)

    def free_on_edge(p, q, x):
        """subinterval of [0,1] where |(p + t(q-p)) - x| <= delta"""
        if p == q:
            return (Fraction(0), Fraction(1)) if abs(p - x) <= delta else None
        t1 = (x - delta - p) / (q - p)
        t2 = (x + delta - p) / (q - p)
        lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
        lo = max(lo, Fraction(0))
        hi = min(hi, Fraction(1))
        return (lo, hi) if lo <= hi else None

    m, n = len(a) - 1, len(b) - 1
    # reach_left[i][j]: reachable part of the left edge of cell (i,j)
    # (vertex a_i against segment b_j..b_{j+1}); reach_bot[i][j]: bottom
    # edge (segment a_i..a_{i+1} against vertex b_j).  The start corner is
    # free, so the initial edges inherit their full free intervals.
    reach_left = [[None] * n for _ in range(m + 1)]
    reach_bot = [[None] * (n + 1) for _ in range(m)]
    reach_left[0][0] = free_on_edge(b[0], b[1], a[0])
    reach_bot[0][0] = free_on_edge(a[0], a[1], b[0])
    for i in range(m):
        for j in range(n):
            left = reach_left[i][j]
            bot = reach_bot[i][j]
            if left is None and bot is None:
                continue
            right_free = free_on_edge(b[j], b[j + 1], a[i + 1])
            top_free = free_on_edge(a[i], a[i + 1], b[j + 1])
            if right_free is not None:
                if bot is not None:
                    cand = right_free
                elif left[0] <= right_free[1]:
                    cand = (max(left[0], right_free[0]), right_free[1])
                else:
                    cand = None
                if cand is not None:
                    prev = reach_left[i + 1][j]
                    reach_left[i + 1][j] = cand if prev is None else (
                        min(prev[0], cand[0]), max(prev[1], cand[1]))
            if top_free is not None:
                if left is not None:
                    cand = top_free
                elif bot[0] <= top_free[1]:
                    cand = (max(bot[0], top_free[0]), top_free[1])
                else:
                    cand = None
                if cand is not None:
                    prev = reach_bot[i][j + 1]
                    reach_bot[i][j + 1] = cand if prev is None else (
                        min(prev[0], cand[0]), max(prev[1], cand[1]))
    return reach_left[m][n - 1] is not None or reach_bot[m - 1][n] is not None


def frechet_value_reference(a, b):
    """The smallest 1D critical value (a distance between the curves'
    vertices, or half one within a curve) that frechet_decide_reference
    accepts, found by trying every one of them on Fractions."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    cands = {Fraction(0)} | {abs(x - y) for x in a for y in b}
    for xs in (a, b):
        cands.update(abs(p - q) / 2 for p in xs for q in xs)
    return min(c for c in cands if frechet_decide_reference(a, b, c))


def refine_curve(points, k):
    """Subdivide every edge into k equal parts; the discrete Frechet
    distance of refined curves upper-bounds the continuous distance and
    converges to it from above."""
    points = [Fraction(x) for x in points]
    if len(points) == 1:
        return points
    out = []
    for p, q in zip(points, points[1:]):
        for s in range(k):
            out.append(p + (q - p) * Fraction(s, k))
    out.append(points[-1])
    return out


# ---------------------------------------------------------------------------
# Brute-force uncertain weak value by realisation enumeration + cell graph
# ---------------------------------------------------------------------------


def enumerate_point(point):
    """Yield representative realisations of one uncertain vertex given as
    the library's model object, without importing library algorithms."""
    # import down here to keep the oracle algorithms library-free
    from lbfrechet.model import FiniteSet, Interval, Precise

    if isinstance(point, Precise):
        return [point.x]
    if isinstance(point, Interval):
        return [point.lo, point.hi]
    if isinstance(point, FiniteSet):
        return list(point.xs)
    raise TypeError(f"unknown point {point!r}")


def grid_point_choices(point, positions):
    """Endpoint choices plus any of the supplied positions lying inside an
    interval vertex."""
    from lbfrechet.model import Interval

    vals = list(enumerate_point(point))
    if isinstance(point, Interval):
        for x in positions:
            if point.lo <= x <= point.hi and x not in vals:
                vals.append(x)
    return vals


def min_weak_over_choices(choices_u, choices_v):
    """Minimum continuous weak Frechet value when each vertex is restricted
    to an explicit list of candidate positions."""
    best = None
    for ru in itertools.product(*choices_u):
        for rv in itertools.product(*choices_v):
            val = weak_frechet_cells_value(ru, rv)
            if best is None or val < best:
                best = val
    return best


def min_weak_over_grid(u, v, positions_u=(), positions_v=()):
    """Minimum continuous weak Frechet value over the sampled realisation
    grid (vertex endpoints plus any supplied positions that land inside an
    interval vertex).  An upper bound for the true minimum; exact when the
    optimum lies on the sampled positions."""
    choices_u = [grid_point_choices(p, positions_u) for p in u.points]
    choices_v = [grid_point_choices(p, positions_v) for p in v.points]
    return min_weak_over_choices(choices_u, choices_v)


# ---------------------------------------------------------------------------
# Lower-bound value by bisecting Fraction deltas over the decision
# ---------------------------------------------------------------------------


def compute_lb_reference(u, v, tol, strict=False):
    """The smallest feasible delta to within tol, by halving a Fraction
    bracket [0, max(span, tol)] and calling decide_lb (which scales its
    inputs afresh) at every midpoint."""
    from lbfrechet.lower_bound import decide_lb

    tol = Fraction(tol)
    (ulo, uhi), (vlo, vhi) = u.span(), v.span()
    span = max(uhi - vlo, vhi - ulo, Fraction(0))
    if span == 0:
        return Fraction(0)
    lo, hi = Fraction(0), max(span, tol)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if decide_lb(u, v, mid, strict=strict).feasible:
            hi = mid
        else:
            lo = mid
    return hi
