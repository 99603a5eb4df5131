"""Minimum weak Frechet distance over realisations of uncertain curves.

The weak distance of a realisation pair decomposes into a forward and a
backward prefix-image bottleneck, and both only depend on where each curve
attains its running extrema and on which values those extrema take.  So
the search enumerates, per curve, the indices of the global minimum and
maximum, builds a forward reachability table whose states carry the
current vertex values and the running images, and joins its final images
with those of the same table built on the reversed curves, whose extremum
vertices are pinned to the values the forward table reached.  A step is
allowed when the vertex it leaves lies within delta of the other curve's
running image, so both tables hold exactly the states whose bottleneck
stays within delta, and no table stores a bottleneck value.  Optimal
vertex positions can be assumed to lie on a grid of uncertainty-region
endpoints shifted by small integer multiples of delta, and optimal deltas
among endpoint differences divided by small integers, which keeps
everything exact and finite.

wfr_min_decide scales the region endpoints and delta to ints once
(model.scale_to_ints), builds the position grids on ints and fills the
tables on ints.  The int grid is an order-preserving image of the Fraction
grid, so the tables hold the same states.  candidate_positions is a public
wrapper over the same integer code.

A decision only runs the extremum-index tuples whose vertices can hold
their curve's extrema: vertex t can hold the minimum only if its lowest
position is at most every vertex's highest one, and the maximum only if
its highest position is at least every vertex's lowest one.  Any other
tuple has an empty forward table, because _extend_hull rejects all of its
realisations.

State counts can still grow quickly.  The cap is a budget for one
decision: the states of all its _weak_dp runs (one per admissible tuple
and direction) are summed, and CapExceeded is raised once the sum passes
the cap; a table stops growing as soon as it alone passes what is left.
So the cap bounds a decision's time as well as its memory, and
wfr_min_value, which makes about log2 of the candidate count decisions,
spends at most that many budgets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .model import Interval, UncertainCurve, narrow, reach_bound, scale_to_ints
from .oracle import CapExceeded

DEFAULT_STATE_CAP = 10_000_000


class _Budget:
    """States one decision may still spend across its _weak_dp runs."""

    __slots__ = ("cap", "left")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.left = cap

    def spend(self, states: int) -> None:
        self.left -= states
        if self.left < 0:
            raise CapExceeded(f"weak DP states of one decision exceeded cap {self.cap}")


def _endpoint_sides(curve: UncertainCurve) -> tuple[list[Fraction], list[Fraction]]:
    """(left endpoints, right endpoints) of all vertex regions."""
    lefts: list[Fraction] = []
    rights: list[Fraction] = []
    for p in curve.points:
        if isinstance(p, Interval):
            lefts.append(p.lo)
            rights.append(p.hi)
        else:
            for e in p.endpoints():
                lefts.append(e)
                rights.append(e)
    return lefts, rights


def candidate_deltas(u: UncertainCurve, v: UncertainCurve) -> list[Fraction]:
    """All values the optimum can take: endpoint differences, and endpoint
    gaps split into up to len(u) + len(v) equal steps."""
    lu, ru = _endpoint_sides(u)
    lv, rv = _endpoint_sides(v)
    lefts = lu + lv
    rights = ru + rv
    every = lefts + rights
    k_max = len(u) + len(v)
    out = {Fraction(0)}
    for a in every:
        for b in every:
            if b > a:
                out.add(b - a)
    for a in rights:
        for b in lefts:
            if b > a:
                gap = b - a
                for k in range(1, k_max + 1):
                    out.add(Fraction(gap, k))
    return sorted(out)


def _int_positions(
    u: UncertainCurve, v: UncertainCurve, delta: Fraction
) -> tuple[int, int, list[list[int]], list[list[int]]]:
    """(s, delta * s, grids of u, grids of v): candidate_positions scaled
    to ints by s, the common denominator of delta and every endpoint."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    base = sorted(set(u.all_endpoints()) | set(v.all_endpoints()))
    s, (ibase, (d,)) = scale_to_ints(base, (delta,))
    of = dict(zip(base, ibase))
    k_max = len(u) + len(v)
    grid = sorted({e + k * d for e in ibase for k in range(-k_max, k_max + 1)})

    def per_vertex(curve: UncertainCurve) -> list[list[int]]:
        out = []
        for p in curve.points:
            if isinstance(p, Interval):
                # the grid holds both endpoints (k = 0)
                out.append(grid[bisect_left(grid, of[p.lo]) : bisect_right(grid, of[p.hi])])
            else:
                out.append([of[x] for x in p.endpoints()])
        return out

    return s, d, per_vertex(u), per_vertex(v)


def candidate_positions(
    u: UncertainCurve, v: UncertainCurve, delta: Fraction
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Per-vertex position grids sufficient for optimal realisations at
    this delta: region endpoints of both curves shifted by k * delta for
    |k| <= len(u) + len(v), clipped to each vertex region, plus the
    region's own endpoints or elements."""
    s, _, pos_u, pos_v = _int_positions(u, v, delta)
    return tuple([[Fraction(x, s) for x in vals] for vals in pos] for pos in (pos_u, pos_v))


def _extend_hull(t: int, x: int, lo: int, hi: int, t_min: int, t_max: int):
    """Update a running image when vertex t takes x, honouring the
    extremum indices.  Returns the new (lo, hi) or None when inadmissible."""
    if t == t_min:
        if x > lo:
            return None
        lo = x
    elif t > t_min:
        if x < lo:
            return None
    else:
        if x < lo:
            lo = x
    if t == t_max:
        if x < hi:
            return None
        hi = x
    elif t > t_max:
        if x > hi:
            return None
    else:
        if x > hi:
            hi = x
    return lo, hi


def _weak_dp(
    pos_u: Sequence[Sequence[int]],
    pos_v: Sequence[Sequence[int]],
    iext: tuple[int, int],
    jext: tuple[int, int],
    d: int,
    *,
    budget: _Budget,
    pins: Optional[tuple] = None,
) -> set:
    """Forward reachability table on positions scaled to ints; returns the
    set of final images ((xlo, xhi), (ylo, yhi)) reachable within d at the
    last grid corner.

    A state at grid index (i, j) is (x, y, xlo, xhi, ylo, yhi): the current
    vertex values and the running images.  A step advances one curve, and
    is allowed when that curve's leaving vertex lies within d of the other
    curve's running image.  The tables live in two rolling rows of per-cell
    sets, and every table's states are drawn from budget.  pins,
    ((x-min values, x-max values), (y-min values, y-max values)), keeps the
    vertices at the extremum indices to those values.
    """
    m, n = len(pos_u), len(pos_v)
    i_min, i_max = iext
    j_min, j_max = jext
    u_choices, v_choices = list(pos_u), list(pos_v)
    if pins is not None:
        for choices, ext, axis in ((u_choices, iext, pins[0]), (v_choices, jext, pins[1])):
            for t, allowed in zip(ext, map(set, axis)):
                choices[t - 1] = [x for x in choices[t - 1] if x in allowed]

    start: set = set()
    for x1 in u_choices[0]:
        hx = _extend_hull(1, x1, x1, x1, i_min, i_max)
        if hx is None:
            continue
        for y1 in v_choices[0]:
            hy = _extend_hull(1, y1, y1, y1, j_min, j_max)
            if hy is not None and abs(x1 - y1) <= d:
                start.add((x1, y1, hx[0], hx[1], hy[0], hy[1]))
    budget.spend(len(start))

    for i in range(1, m + 1):
        row = [start] if i == 1 else []  # row 1 begins at the start cell
        for j in range(len(row) + 1, n + 1):
            # one cell's table can outgrow the budget: stop filling it
            # there, and spend() below raises
            left = budget.left
            cur: set = set()
            if i > 1:
                for x, y, xlo, xhi, ylo, yhi in prev[j - 1]:
                    if len(cur) > left:
                        break
                    if not ylo - d <= x <= yhi + d:
                        continue
                    for x2 in u_choices[i - 1]:
                        h = _extend_hull(i, x2, xlo, xhi, i_min, i_max)
                        if h is not None:
                            cur.add((x2, y, h[0], h[1], ylo, yhi))
            if j > 1:
                for x, y, xlo, xhi, ylo, yhi in row[j - 2]:
                    if len(cur) > left:
                        break
                    if not xlo - d <= y <= xhi + d:
                        continue
                    for y2 in v_choices[j - 1]:
                        h = _extend_hull(j, y2, ylo, yhi, j_min, j_max)
                        if h is not None:
                            cur.add((x, y2, xlo, xhi, h[0], h[1]))
            row.append(cur)
            budget.spend(len(cur))
        prev = row

    return {((xlo, xhi), (ylo, yhi)) for _, _, xlo, xhi, ylo, yhi in prev[-1]}


def _extremum_slots(pos: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(vertices that can hold the curve minimum, vertices that can hold
    its maximum), 1-based: lowest position at most every vertex's highest,
    highest position at least every vertex's lowest."""
    los = [min(p) for p in pos]
    his = [max(p) for p in pos]
    low, high = min(his), max(los)
    return (
        [t for t, x in enumerate(los, 1) if x <= low],
        [t for t, x in enumerate(his, 1) if x >= high],
    )


def wfr_min_decide(
    u: UncertainCurve,
    v: UncertainCurve,
    delta: Fraction,
    *,
    cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """Is there a realisation pair with weak Frechet distance <= delta?

    Joins the final images of the forward table with those of the table
    of the reversed curves, per extremum-index tuple: a pair is witnessed
    exactly when both directions stay within delta for the same images.
    All runs draw on one budget of cap states.
    """
    _, d, pos_u, pos_v = _int_positions(u, v, delta)
    m, n = len(pos_u), len(pos_v)
    rpos_u, rpos_v = pos_u[::-1], pos_v[::-1]
    u_mins, u_maxs = _extremum_slots(pos_u)
    v_mins, v_maxs = _extremum_slots(pos_v)
    budget = _Budget(cap)
    for i_min, i_max, j_min, j_max in product(u_mins, u_maxs, v_mins, v_maxs):
        fwd = _weak_dp(pos_u, pos_v, (i_min, i_max), (j_min, j_max), d, budget=budget)
        if not fwd:
            continue
        # per axis, the (min values, max values) the forward table reached
        pins = tuple(tuple(zip(*hulls)) for hulls in zip(*fwd))
        bwd = _weak_dp(
            rpos_u,
            rpos_v,
            (m + 1 - i_min, m + 1 - i_max),
            (n + 1 - j_min, n + 1 - j_max),
            d,
            budget=budget,
            pins=pins,
        )
        if not fwd.isdisjoint(bwd):
            return True
    return False


def wfr_min_value(
    u: UncertainCurve,
    v: UncertainCurve,
    *,
    cap: int = DEFAULT_STATE_CAP,
) -> Fraction:
    """Smallest candidate delta accepted by the decision procedure.

    The first decision is at the reach bound L of the vertex spans
    (model.reach_bound, taken on the spans scaled to ints once), an
    endpoint difference and so a candidate: a
    realisation pair within weak distance delta still matches its first
    vertices, its last vertices, and each vertex to a point of the other
    curve's image, which lies in the span of that curve's regions, so no
    candidate below L is feasible.  Most pairs have their minimum at L
    (L = 0 for overlapping regions), and then the candidates are never
    listed.  Otherwise the sorted candidates above L are bisected
    (model.narrow): the exact decision is monotone in delta, so this takes
    about log2 of their count decisions, each with its own budget of cap
    states.  The largest candidate, the span of all endpoints, is always
    feasible.  Deciding at the smallest live delta first matters: it
    prunes the most states, while a decision at a middle candidate can
    cost minutes on curves of five or six intervals.
    """
    s, spans = scale_to_ints(*(p.span() for p in u.points), *(p.span() for p in v.points))
    reach = Fraction(reach_bound(spans[: len(u)], spans[len(u) :]), s)
    if wfr_min_decide(u, v, reach, cap=cap):
        return reach
    cands = candidate_deltas(u, v)
    # indices: L's is rejected, and len(cands) stands for an accepted one
    _, k = narrow(
        lambda k: wfr_min_decide(u, v, cands[k], cap=cap),
        lambda lo, hi: (lo + hi + 1) // 2 if hi - lo > 1 else None,
        bisect_left(cands, reach),
        len(cands),
    )
    return cands[k]
