"""Minimum weak Frechet distance over realisations of uncertain curves.

The weak distance of a realisation pair decomposes into a forward and a
backward prefix-image bottleneck, and both only depend on where each curve
attains its running extrema and on which values those extrema take.  So
the search enumerates, per curve, the indices of the global minimum and
maximum, runs a forward dynamic program whose states carry the current
vertex values and the running images, and joins the forward table with the
same table built on the reversed curves.  Optimal vertex positions can be
assumed to lie on a grid of uncertainty-region endpoints shifted by small
integer multiples of delta, and optimal deltas among endpoint differences
divided by small integers, which keeps everything exact and finite.

wfr_min_decide scales the region endpoints and delta to ints once
(model.scale_to_ints), builds the position grids on ints and runs the DP
on ints.  The int grid is an order-preserving image of the Fraction grid,
so the DP visits the same states and hits the cap at the same point.
candidate_positions and min_r_constrained are public wrappers over the
same integer code.

State counts can still grow quickly.  The cap bounds the states of one
_weak_dp run and raises CapExceeded when a run passes it; it does not
bound time, because one decision runs up to 2 m^2 n^2 of those DPs (one
per extremum-index tuple and direction), each under the cap.  One small
delta on a pair of 4-vertex interval curves can take tens of seconds, and
larger pairs far longer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import Interval, UncertainCurve, scale_to_ints
from .oracle import CapExceeded
from .precise import INF, _dist_to_interval

DEFAULT_STATE_CAP = 10_000_000


@dataclass(frozen=True)
class RespectConstraint:
    """Where each curve attains its global extrema, and with which values.

    Indices are 1-based vertex indices; a realisation respects the
    constraint when vertex i_min holds the curve minimum x_min, vertex
    i_max the maximum x_max, and likewise (j_min, j_max, y_min, y_max)
    for the second curve.
    """

    i_min: int
    i_max: int
    j_min: int
    j_max: int
    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("extreme values out of order")

    def reversed_for(self, m: int, n: int) -> "RespectConstraint":
        return RespectConstraint(
            m + 1 - self.i_min,
            m + 1 - self.i_max,
            n + 1 - self.j_min,
            n + 1 - self.j_max,
            self.x_min,
            self.x_max,
            self.y_min,
            self.y_max,
        )


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


def _extend_hull(t: int, val: int, lo: int, hi: int, t_min: int, t_max: int):
    """Update a running image when vertex t takes val, honouring the
    extremum indices.  Returns the new (lo, hi) or None when inadmissible."""
    if t == t_min:
        if val > lo:
            return None
        lo = val
    elif t > t_min:
        if val < lo:
            return None
    else:
        if val < lo:
            lo = val
    if t == t_max:
        if val < hi:
            return None
        hi = val
    elif t > t_max:
        if val > hi:
            return None
    else:
        if val > hi:
            hi = val
    return lo, hi


def _weak_dp(
    pos_u: Sequence[Sequence[int]],
    pos_v: Sequence[Sequence[int]],
    iext: tuple[int, int],
    jext: tuple[int, int],
    *,
    pin_domains: Optional[dict] = None,
    prune_above: Optional[int] = None,
    cap: int = DEFAULT_STATE_CAP,
) -> dict:
    """Forward bottleneck DP on positions scaled to ints; returns
    {((xlo,xhi),(ylo,yhi)): value} at the final grid corner.

    States at grid index (i, j) are keyed by the current vertex values and
    the running images; the value is the best bottleneck so far.  Steps
    advance one curve, paying that curve's leaving vertex against the
    other's running image.
    """
    m, n = len(pos_u), len(pos_v)
    i_min, i_max = iext
    j_min, j_max = jext

    def dom(axis: str, which: str, values):
        if pin_domains is None:
            return values
        allowed = pin_domains.get((axis, which))
        if allowed is None:
            return values
        return [x for x in values if x in allowed]

    def u_choices(t: int):
        vals = pos_u[t - 1]
        if t == i_min:
            vals = dom("x", "min", vals)
        if t == i_max:
            vals = dom("x", "max", vals)
        return vals

    def v_choices(t: int):
        vals = pos_v[t - 1]
        if t == j_min:
            vals = dom("y", "min", vals)
        if t == j_max:
            vals = dom("y", "max", vals)
        return vals

    total_states = 0
    table: dict = {}
    start: dict = {}
    for x1 in u_choices(1):
        hx = _extend_hull(1, x1, x1, x1, i_min, i_max)
        if hx is None:
            continue
        for y1 in v_choices(1):
            hy = _extend_hull(1, y1, y1, y1, j_min, j_max)
            if hy is None:
                continue
            val = abs(x1 - y1)
            if prune_above is not None and val > prune_above:
                continue
            start[(x1, y1, hx[0], hx[1], hy[0], hy[1])] = val
    table[(1, 1)] = start
    total_states += len(start)
    if total_states > cap:
        raise CapExceeded(f"weak DP state count exceeded cap {cap}")

    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if i == 1 and j == 1:
                continue
            cur: dict = {}
            if i > 1:
                for (x, y, xlo, xhi, ylo, yhi), val in table.get((i - 1, j), {}).items():
                    pen = _dist_to_interval(x, ylo, yhi)
                    base = val if val >= pen else pen
                    if prune_above is not None and base > prune_above:
                        continue
                    for x2 in u_choices(i):
                        h = _extend_hull(i, x2, xlo, xhi, i_min, i_max)
                        if h is None:
                            continue
                        key = (x2, y, h[0], h[1], ylo, yhi)
                        old = cur.get(key)
                        if old is None or base < old:
                            cur[key] = base
            if j > 1:
                for (x, y, xlo, xhi, ylo, yhi), val in table.get((i, j - 1), {}).items():
                    pen = _dist_to_interval(y, xlo, xhi)
                    base = val if val >= pen else pen
                    if prune_above is not None and base > prune_above:
                        continue
                    for y2 in v_choices(j):
                        h = _extend_hull(j, y2, ylo, yhi, j_min, j_max)
                        if h is None:
                            continue
                        key = (x, y2, xlo, xhi, h[0], h[1])
                        old = cur.get(key)
                        if old is None or base < old:
                            cur[key] = base
            table[(i, j)] = cur
            total_states += len(cur)
            if total_states > cap:
                raise CapExceeded(f"weak DP state count exceeded cap {cap}")
        # rows above the previous one are never read again
        if i >= 2:
            for j in range(1, n + 1):
                table.pop((i - 2, j), None)

    out: dict = {}
    for (x, y, xlo, xhi, ylo, yhi), val in table.get((m, n), {}).items():
        key = ((xlo, xhi), (ylo, yhi))
        old = out.get(key)
        if old is None or val < old:
            out[key] = val
    return out


def min_r_constrained(
    u: UncertainCurve,
    v: UncertainCurve,
    rc: RespectConstraint,
    positions: tuple[Sequence[Sequence[Fraction]], Sequence[Sequence[Fraction]]],
    *,
    cap: int = DEFAULT_STATE_CAP,
):
    """Minimum forward bottleneck over realisation pairs respecting rc,
    or float infinity when none does."""
    m, n = len(u), len(v)
    for t, bound in ((rc.i_min, m), (rc.i_max, m), (rc.j_min, n), (rc.j_max, n)):
        if not (1 <= t <= bound):
            raise ValueError(f"extremum index {t} out of range")
    pos_u, pos_v = positions
    pins = (rc.x_min, rc.x_max, rc.y_min, rc.y_max)
    s, scaled = scale_to_ints(*pos_u, *pos_v, pins)
    x_min, x_max, y_min, y_max = scaled[-1]
    res = _weak_dp(
        scaled[: len(pos_u)],
        scaled[len(pos_u) : -1],
        (rc.i_min, rc.i_max),
        (rc.j_min, rc.j_max),
        pin_domains={
            ("x", "min"): {x_min},
            ("x", "max"): {x_max},
            ("y", "min"): {y_min},
            ("y", "max"): {y_max},
        },
        cap=cap,
    )
    val = res.get(((x_min, x_max), (y_min, y_max)))
    return INF if val is None else Fraction(val, s)


def wfr_min_decide(
    u: UncertainCurve,
    v: UncertainCurve,
    delta: Fraction,
    *,
    cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """Is there a realisation pair with weak Frechet distance <= delta?

    Joins the forward table with the table of the reversed curves over
    matching extremum indices and values: a pair is witnessed exactly when
    both directions stay within delta for the same image constraints.
    """
    _, d, pos_u, pos_v = _int_positions(u, v, delta)
    m, n = len(pos_u), len(pos_v)
    rpos_u = pos_u[::-1]
    rpos_v = pos_v[::-1]
    for i_min in range(1, m + 1):
        for i_max in range(1, m + 1):
            for j_min in range(1, n + 1):
                for j_max in range(1, n + 1):
                    fwd = _weak_dp(
                        pos_u,
                        pos_v,
                        (i_min, i_max),
                        (j_min, j_max),
                        prune_above=d,
                        cap=cap,
                    )
                    if not fwd:
                        continue
                    domains = {
                        ("x", "min"): {xy[0][0] for xy in fwd},
                        ("x", "max"): {xy[0][1] for xy in fwd},
                        ("y", "min"): {xy[1][0] for xy in fwd},
                        ("y", "max"): {xy[1][1] for xy in fwd},
                    }
                    bwd = _weak_dp(
                        rpos_u,
                        rpos_v,
                        (m + 1 - i_min, m + 1 - i_max),
                        (n + 1 - j_min, n + 1 - j_max),
                        pin_domains=domains,
                        prune_above=d,
                        cap=cap,
                    )
                    if any(key in bwd for key in fwd):
                        return True
    return False


def wfr_min_value(
    u: UncertainCurve,
    v: UncertainCurve,
    *,
    cap: int = DEFAULT_STATE_CAP,
) -> Fraction:
    """Smallest candidate delta accepted by the decision procedure."""
    for delta in candidate_deltas(u, v):
        if wfr_min_decide(u, v, delta, cap=cap):
            return delta
    raise AssertionError("no candidate delta was feasible")
