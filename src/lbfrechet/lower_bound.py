"""Lower-bound Frechet decision for uncertain curves via region propagation.

Two walkers traverse the two curves; at any moment each is either parked at
a vertex realisation or committed to moving left or right along an edge.
For each grid index we keep four regions of admissible (x, y) coordinate
pairs, one per committed direction (U/D: the second walker moves up or
down while the first is parked, R/L: the first walker moves right or left
while the second is parked).  Regions grow by Minkowski sums with movement
cones and are trimmed by the slab of the next vertex and the band
|x - y| <= delta.  The decision is feasible iff a final region is
nonempty.

The predecessor table _PREDS is the recurrence: per kind, the (predecessor
kind, cone) terms whose Minkowski sums make up its region, and the ray along
the base row or column.  One sweep computes the regions from it with the
fused cone-and-meet kernels of the regions module.  Inside the sweep an
empty region is one piece beyond the clip box, which every kernel maps to
nothing; so where every predecessor region holds one piece or is empty, a
hand-fused step evaluates the twelve terms at once, and where all four are
empty the cell stays empty.  Every cell skips the quadrant terms that lie
inside a half-plane term, and with two pieces in a kind's own predecessor
only the one reaching furthest gives a half-plane term.  A traced decision
has the sweep record each region it produces, by rows: a copy of the rolling
U/D columns per row of u's vertices and one list of R/L regions per row, the
stand-in kept for empty regions (LbTrace).  A witness realisation pair is
read back off those rows by walking _PREDS in reverse, and which term
contributed which piece is recomputed from them on request with the
generic Minkowski sum and meet.

Everything runs on integers: decide_lb scales its inputs once by the common
denominator (model.scale_to_ints), runs the sweep (_sweep) and scales the
final regions back.  compute_lb scales the curves and its grid step once and
runs the sweep directly on integer deltas.

Before any cell is swept, an untraced sweep compares delta with the reach
bound L of the vertex regions (model.reach_bound), an O(m + n) filter in
the manner of the endpoint and bounding-box filters of Bringmann,
Kunnemann and Nusser ("Walking the dog fast in practice", SoCG 2019).
Every realisation pair within delta matches the first vertices to each
other and the last to each other, and matches every vertex of one curve to
a point of the other curve, which lies in the span of that curve's vertex
regions.  So no pair is within any delta below L, the largest of those
gaps, and the sweep returns no final part there.

The same argument, applied to suffixes, picks the cells an untraced sweep
evaluates (model.live_windows, also O(m + n)).  In cell (i, j) both walkers
are at or past u_i and v_j and before u_{i+1} and v_{j+1}, so each later
vertex of u still meets a point of v in the span of the regions of
v_j..v_n, and each later vertex of v a point in the span of those of
u_i..u_m.  In a cell where one of those gaps exceeds delta no point has a
completion within delta, and neither has any point it feeds, since a
completion of the fed point would also complete its source.  The sweep
evaluates only the cells that pass, one window of columns per row, and
hands the stand-in for an empty region on from the others.  So it drops
only points of no complete path, and the final parts, which keep exactly
the points of complete paths, do not change.  Every path crosses every
row, so a row whose window is empty leaves no final part, and the sweep
returns before any cell.  Traced sweeps skip both filters and record
every cell, so dumps and witnesses do not change.

compute_lb pairs these negative filters with a positive one from the same
paper, also O(m + n): _greedy walks one discrete coupling of the vertex
sequences and accepts when some realisation pair keeps every coupled pair
within delta, and only the probes it does not accept are swept.  Such a
coupling bounds the continuous distance of the pair it places, since along
each step both walkers move linearly and their distance is convex (Eiter
and Mannila 1994).  Its constraints form a forest, whose current edge
_greedy keeps as two exact intervals, so nonempty intervals at the end mean
that such a pair exists.

compute_lb finds the smallest feasible multiple of a grid step within tol.
Before bisecting the grid it probes candidate values C: 0 and the endpoint
differences and half differences of both curves, the critical values of the
1D precise Frechet distance (Alt and Godau 1995).  L is one of them, an
endpoint difference, and it is probed first, with every delta below it
known infeasible; most pairs tried have their value at L.  Each further
probe is a rank pivot among the undecided candidates, picked without
listing C (selection in sorted matrices, Frederickson and Johnson 1984).
Grid bisection finishes the bracket, so the result does not depend on C;
that the lower bound's value always lies in C is evidence from random
pairs, not a proof.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import precise
from .model import FiniteSet, PolyCurve, UncertainCurve, live_windows, midpoint, narrow, rank_pivot, reach_bound, scale_to_ints
from .regions import (
    Bounds,
    ClipBox,
    Cone,
    Region,
    _KEEP,
    _mm_h_d,
    _mm_h_l,
    _mm_h_r,
    _mm_h_u,
    _mm_q_ld,
    _mm_q_lu,
    _mm_q_rd,
    _mm_q_ru,
    bounds_lexmin,
    close_bounds,
    dump_line,
    meet_bounds,
    mink_bounds,
    normalize_pieces,
    opposite,
)


def clip_box_for(u: UncertainCurve, v: UncertainCurve, delta: Fraction) -> ClipBox:
    """The clipping square used by the propagation: generous enough that
    clipping never changes any decision or witness: _clip_ints on the
    unscaled Fraction hulls (scale 1)."""
    return ClipBox(*_clip_ints([p.span() for p in u.points + v.points], Fraction(delta), 1))


def _clip_ints(hulls: list, d: int, s: int) -> tuple[int, int]:
    """The clipping square's (lo, hi) on the scale s, from the scaled vertex
    intervals hulls and the scaled delta d: every position widened by
    2 delta + 1, times s."""
    return min(lo for lo, _ in hulls) - 2 * d - s, max(hi for _, hi in hulls) + 2 * d + s


def _hulled_intervals(u: UncertainCurve, v: UncertainCurve, strict: bool) -> tuple[list, list]:
    """The vertex intervals of both curves, finite sets hulled to their span
    with at most one warning per call."""
    if any(isinstance(p, FiniteSet) and len(p.xs) > 1 for p in u.points + v.points):
        if strict:
            raise ValueError(
                "finite-set vertices are not supported by the lower-bound "
                "decision; rerun without strict mode to hull them"
            )
        warnings.warn(
            "finite-set vertex hulled to its spanning interval for the "
            "lower-bound decision",
            stacklevel=3,
        )
    return [p.span() for p in u.points], [p.span() for p in v.points]


def _two(p: Bounds, q: Bounds) -> tuple:
    """Containment cleanup of an ordered pair of pieces."""
    if q[0] >= p[0] and q[1] <= p[1] and q[2] >= p[2] and q[3] <= p[3] and q[4] >= p[4] and q[5] <= p[5]:
        return (p,)
    if p[0] >= q[0] and p[1] <= q[1] and p[2] >= q[2] and p[3] <= q[3] and p[4] >= q[4] and p[5] <= q[5]:
        return (q,)
    return (p, q)


def _three(a: Bounds, b: Bounds, c: Bounds) -> tuple:
    """Containment cleanup of an ordered triple."""
    return _reduce([a, b, c])


def _reduce(ps: list) -> tuple:
    """Cheap piece cleanup: dedupe and drop contained pieces; full merge
    only when more than two pieces survive."""
    k = len(ps)
    if k == 0:
        return ()
    if k == 1:
        return (ps[0],)
    if k == 2:
        return _two(ps[0], ps[1])
    kept: list = []
    for p in ps:
        add = True
        for q in kept:
            if p[0] >= q[0] and p[1] <= q[1] and p[2] >= q[2] and p[3] <= q[3] and p[4] >= q[4] and p[5] <= q[5]:
                add = False
                break
        if add:
            kept = [q for q in kept if not (q[0] >= p[0] and q[1] <= p[1] and q[2] >= p[2] and q[3] <= p[3] and q[4] >= p[4] and q[5] <= p[5])]
            kept.append(p)
    if len(kept) > 2:
        return normalize_pieces(kept)
    return tuple(kept)


# The recurrence, read by the sweep, the witness walk and provenance().
# Per kind: the grid step from its predecessor cell, the ray it follows
# out of a vertex slab, and its (predecessor kind, cone) terms in sweep order.
# Off the base row and column a term is mink(pred, cone) met with the slab of
# the vertex the step lands on.  On the base row (U/D at i = 1) and the base
# column (R/L at j = 1) the step runs along the other axis instead, over the
# two kinds of the same axis: the predecessor meets the slab of the vertex it
# crosses first and then follows the ray, trimmed to the band.  At (1, 1) the
# ray leaves the start piece x00.
_PREDS = {
    "U": ((1, 0), Cone.S_U, (("U", Cone.H_U), ("R", Cone.Q_RU), ("L", Cone.Q_LU))),
    "D": ((1, 0), Cone.S_D, (("D", Cone.H_D), ("R", Cone.Q_RD), ("L", Cone.Q_LD))),
    "R": ((0, 1), Cone.S_R, (("R", Cone.H_R), ("U", Cone.Q_RU), ("D", Cone.Q_RD))),
    "L": ((0, 1), Cone.S_L, (("L", Cone.H_L), ("U", Cone.Q_LU), ("D", Cone.Q_LD))),
}


@dataclass
class LbTrace:
    """A traced decision: the sweep's scaled inputs and every region it
    produced, stored by rows as the sweep made them.

    rows[kind][i - 1][j - 1] is the region of kind at (i, j), in row-major
    order.  U/D have rows i = 1..m of columns j = 1..n-1: row 1 is the base
    row, and each later row a copy of the sweep's rolling U/D columns taken
    when it finished row i - 1.  R/L have rows i = 1..m-1 of columns
    j = 1..n: the base column's region, then the region each cell of row i
    hands to the next.  An empty region is the sweep's stand-in `empty`,
    which region() and stored() read as ().  hulls holds the scaled vertex
    intervals, u's m and then v's n; the decision is feasible iff
    final_parts is nonempty."""

    m: int
    n: int
    scale: int
    delta_scaled: int
    box_scaled: tuple[int, int]
    hulls: list
    i_pieces: list
    j_pieces: list
    x00: Optional[Bounds]
    rows: dict
    empty: tuple
    final_parts: list

    def _stores(self, kind: str, i: int, j: int) -> bool:
        """Whether the sweep stores a region of kind at (i, j)."""
        rows = self.rows[kind]
        return 0 < i <= len(rows) and 0 < j <= len(rows[i - 1])

    def region(self, kind: str, i: int, j: int) -> tuple:
        """The pieces of kind at (i, j); () for an empty region or a cell
        the sweep does not store."""
        if not self._stores(kind, i, j):
            return ()
        got = self.rows[kind][i - 1][j - 1]
        return () if got is self.empty else got

    def stored(self, kind: str):
        """(i, j, pieces) for every cell of kind the sweep stores, in
        row-major order, () for an empty region."""
        empty = self.empty
        for i, row in enumerate(self.rows[kind], 1):
            for j, got in enumerate(row, 1):
                yield i, j, () if got is empty else got

    def terms(self, kind: str, i: int, j: int) -> tuple:
        """The recurrence of kind at (i, j) as (predecessor cell, slab met
        first or None, target, ((name, cone, predecessor pieces), ...)).

        Each predecessor piece p contributes meet(mink(p', cone), target),
        where p' is p met with the slab when there is one.  The predecessor
        cell is None at (1, 1), whose single term is the start piece."""
        (di, dj), ray, preds = _PREDS[kind]
        if i > di and j > dj:
            cell = (i - di, j - dj)
            target = self.i_pieces[i] if di else self.j_pieces[j]
            return cell, None, target, tuple(
                (pk, cone, self.region(pk, *cell)) for pk, cone in preds
            )
        blo, bhi = self.box_scaled
        d = self.delta_scaled
        band = (blo, bhi, blo, bhi, -d, d)
        if i == j == 1:
            start = () if self.x00 is None else (self.x00,)
            return None, None, band, (("base", ray, start),)
        cell = (i - dj, j - di)
        slab = self.j_pieces[j] if di else self.i_pieces[i]
        return cell, slab, band, tuple(
            (pk, ray, self.region(pk, *cell)) for pk in ("UD" if di else "RL")
        )

    def provenance(self, kind: str, i: int, j: int) -> tuple:
        """(name, pieces) per recurrence term that contributes to the stored
        region of kind at (i, j), recomputed from the rows with the generic
        Minkowski sum and meet; empty for cells the sweep did not store."""
        if not self._stores(kind, i, j):
            return ()
        blo, bhi = self.box_scaled
        _, slab, target, terms = self.terms(kind, i, j)
        out = []
        for name, cone, pieces in terms:
            got = []
            for p in pieces:
                if slab is not None:
                    p = meet_bounds(p, slab)
                    if p is None:
                        continue
                q = meet_bounds(mink_bounds(p, cone, blo, bhi), target)
                if q is not None:
                    got.append(q)
            if got:
                out.append((name, normalize_pieces(got)))
        return tuple(out)

    def dump_to(self, directory: str) -> None:
        """Write every stored region, one piece per line as a vertex list."""
        os.makedirs(directory, exist_ok=True)
        files = {kind: ((f"{i} {j}", ps) for i, j, ps in self.stored(kind)) for kind in "UDRL"}
        files["final"] = ((f"{kind} {i} {j}", ps) for kind, i, j, ps in self.final_parts)
        for name, cells in files.items():
            with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
                for label, pieces in cells:
                    for p in normalize_pieces(pieces):
                        fh.write(f"{label} : {dump_line(p, self.scale)}\n")


@dataclass
class LbDecision:
    feasible: bool
    delta: Fraction
    final_region: Region
    trace: Optional[LbTrace] = None


def decide_lb(
    u: UncertainCurve,
    v: UncertainCurve,
    delta: Fraction,
    *,
    strict: bool = False,
    trace: bool = False,
) -> LbDecision:
    """Decide whether some realisation pair has Frechet distance <= delta.

    With trace=True the sweep also records every region it produces, which
    extract_witness and LbTrace.provenance read back, and evaluates every
    cell.  Untraced, it sweeps nothing below the reach bound, and elsewhere
    only the cells inside each row's live window (see the module
    docstring)."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    hull_u, hull_v = _hulled_intervals(u, v, strict)
    s, ((d,), *hulls) = scale_to_ints((delta,), *hull_u, *hull_v)
    blo, bhi = _clip_ints(hulls, d, s)
    m = len(hull_u)
    ipieces, jpieces, x00, rows, empty, final_parts = _sweep(hulls[:m], hulls[m:], d, blo, bhi, trace)

    final_region = Region.from_bounds(
        [tuple(Fraction(x, s) for x in p) for _, _, _, pieces in final_parts for p in pieces],
        ClipBox(Fraction(blo, s), Fraction(bhi, s)),
    )
    recorded = None
    if trace:
        recorded = LbTrace(
            m=m, n=len(hull_v), scale=s, delta_scaled=d, box_scaled=(blo, bhi), hulls=hulls,
            i_pieces=ipieces, j_pieces=jpieces, x00=x00, rows=rows, empty=empty,
            final_parts=final_parts,
        )
    return LbDecision(feasible=bool(final_parts), delta=delta, final_region=final_region, trace=recorded)


def _sweep(su: list, sv: list, d: int, blo: int, bhi: int, trace: bool) -> tuple:
    """The propagation on scaled ints: vertex intervals su and sv, band
    half-width d, clip box [blo, bhi].  Returns the vertex slabs of both
    curves, the start piece, the recorded rows per kind (empty unless
    trace; laid out as LbTrace.rows), the stand-in E for an empty region
    and the final parts (kind, i, j, pieces); the decision is feasible iff
    some final part is left.  Untraced, a d below the reach bound of su and
    sv, or a row whose live window (model.live_windows) is empty, returns no
    final part without sweeping a cell; otherwise only the cells inside
    each row's window are evaluated, and the others hand E on.  Those two
    tests run before anything is built, and their early return holds None
    for every part but the (empty) final parts, the only one an untraced
    caller reads."""
    m, n = len(su), len(sv)
    # per row i = 1..m-1, the columns [lo, hi) of the cells swept
    if trace:
        windows = [(1, n)] * (m - 1)
    else:
        # no realisation pair reaches delta, or no path crosses some row:
        # no final part survives
        if d < reach_bound(su, sv):
            return None, None, None, None, None, []
        windows = live_windows(su, sv, d)
        if n > 1 and any(lo >= hi for lo, hi in windows):
            return None, None, None, None, None, []

    # Vertex slabs already trimmed to the band and the box.
    ipieces = [None] + [close_bounds(lo, hi, blo, bhi, -d, d) for lo, hi in su]
    jpieces = [None] + [close_bounds(blo, bhi, lo, hi, -d, d) for lo, hi in sv]
    assert all(p is not None for p in ipieces[1:] + jpieces[1:])
    x00 = meet_bounds(ipieces[1], jpieces[1])
    # the stand-in for an empty region: one piece beyond the box
    E = ((bhi + 1, blo - 1, bhi + 1, blo - 1, bhi - blo + 1, blo - bhi - 1),)
    rows: dict = {k: [] for k in "UDRL"}
    band = (blo, bhi, blo, bhi, -d, d)

    def base_walk(slabs, count, kinds):
        # The two kinds of one axis along the base row (U/D over j at i = 1)
        # or the base column (R/L over i at j = 1), indices 1..count-1: each
        # follows its _PREDS ray out of the previous slab, trimmed to the band.
        rays = [_PREDS[kind][1] for kind in kinds]
        walks = [[()] * (count + 1) for _ in kinds]
        src: list = [] if x00 is None else [x00]
        for k in range(1, count):
            if k > 1:
                slab = slabs[k]
                src = [w for w in (meet_bounds(p, slab) for walk in walks for p in walk[k - 1]) if w is not None]
            for walk, ray in zip(walks, rays):
                rayed = (meet_bounds(mink_bounds(p, ray, blo, bhi), band) for p in src)
                walk[k] = _reduce([q for q in rayed if q is not None])
        return walks

    ucol, dcol = base_walk(jpieces, n, "UD")
    rbase, lbase = base_walk(ipieces, m, "RL")

    # --- interior sweep --------------------------------------------------
    # Rolling state: ucol/dcol hold the U/D regions of the current row and
    # rcur/lcur the R/L regions at (i, j).  An empty region is the shared
    # stand-in E, one piece beyond the box on every bound, which each _mm_*
    # kernel maps to None.  A cell with E in all four sources stays empty,
    # one with one piece (or E) in every source takes the hand-fused step,
    # and any other walks each kind's _PREDS terms and cleans up with
    # _reduce.  Both skip (None) each quadrant term that lies inside the
    # kind's half-plane term, as the cleanup would drop it: its source does
    # not pass the kind's own source on the one bound that half-plane keeps
    # (E as a quadrant source never passes; every piece passes E as the own
    # source).  Of two own pieces only the one extreme on that bound gives a
    # half-plane term; the other's lies inside it.  A traced decision
    # records rows, E included: a copy of columns 1..n-1 of ucol/dcol per
    # row (the base row first), and per row i < m the R/L regions of
    # columns 1..n, the base column's first, appended as they are made.
    # In the fused step a kind whose two quadrant terms are both skipped is
    # its half-plane term alone, with no cleanup.  The multi-piece step holds
    # the sources by position in U, D, R, L order and takes the own extreme
    # with a plain loop, the first on ties.  Every kernel is read from this
    # module's globals when the sweep starts, where a tracer can patch it.
    ucol, dcol, rbase, lbase = ([w or E for w in walk] for walk in (ucol, dcol, rbase, lbase))
    urows, drows, rrows, lrows = rows.values()
    if trace:
        urows.append(ucol[1:n])
        drows.append(dcol[1:n])
    hr, hl, hu, hd = _mm_h_r, _mm_h_l, _mm_h_u, _mm_h_d
    qru, qlu, qrd, qld = _mm_q_ru, _mm_q_lu, _mm_q_rd, _mm_q_ld
    kernel = {Cone.H_R: hr, Cone.H_L: hl, Cone.H_U: hu, Cone.H_D: hd,
              Cone.Q_RU: qru, Cone.Q_LU: qlu, Cone.Q_RD: qrd, Cone.Q_LD: qld}
    # per kind, in U, D, R, L order: (steps along u, own source position,
    # half-plane kernel, the bound b it keeps, whether b is an upper bound,
    # ((source position, quadrant kernel), ...))
    recurrence = []
    for kind in "UDRL":
        (di, _), _, ((own, half), *quads) = _PREDS[kind]
        b = _KEEP[half].index(True)
        recurrence.append((di, "UDRL".index(own), kernel[half], b, b % 2 == 1,
                           tuple(("UDRL".index(pk), kernel[cone]) for pk, cone in quads)))
    reduce_, two, three = _reduce, _two, _three

    def comb3(a, b, c):
        # containment cleanup of up-to-three kernel results, in order
        if a is None:
            if b is None:
                return E if c is None else (c,)
            return (b,) if c is None else two(b, c)
        if b is None:
            return (a,) if c is None else two(a, c)
        if c is None:
            return two(a, b)
        return three(a, b, c)

    rlast = llast = ()
    for i, (lo, hi) in enumerate(windows, 1):
        # cells outside the window reach no final part: they hand E on
        ucol[1:lo] = dcol[1:lo] = [E] * (lo - 1)
        ucol[hi:n] = dcol[hi:n] = [E] * (n - hi)
        rcur, lcur = (rbase[i], lbase[i]) if lo == 1 else (E, E)
        if trace:
            rrow, lrow = [rcur], [lcur]
            rrows.append(rrow)
            lrows.append(lrow)
        inext = ipieces[i + 1]
        for j in range(lo, hi):
            uij, dij, jnext = ucol[j], dcol[j], jpieces[j + 1]
            if rcur is E and lcur is E and uij is E and dij is E:
                new_r = new_l = E  # ucol[j] and dcol[j] stay empty
            elif len(rcur) == 1 and len(lcur) == 1 and len(uij) == 1 and len(dij) == 1:
                (pr,), (pl,), (pu,), (pd,) = rcur, lcur, uij, dij
                r0, _, r2, r3, _, _ = pr
                _, l1, l2, l3, _, _ = pl
                u0, u1, u2, _, _, _ = pu
                d0, d1, _, d3, _, _ = pd
                a = hr(pr, jnext)
                if u0 >= r0 and d0 >= r0:
                    new_r = E if a is None else (a,)
                else:
                    new_r = comb3(a, None if u0 >= r0 else qru(pu, jnext), None if d0 >= r0 else qrd(pd, jnext))
                a = hl(pl, jnext)
                if u1 <= l1 and d1 <= l1:
                    new_l = E if a is None else (a,)
                else:
                    new_l = comb3(a, None if u1 <= l1 else qlu(pu, jnext), None if d1 <= l1 else qld(pd, jnext))
                a = hu(pu, inext)
                if r2 >= u2 and l2 >= u2:
                    ucol[j] = E if a is None else (a,)
                else:
                    ucol[j] = comb3(a, None if r2 >= u2 else qru(pr, inext), None if l2 >= u2 else qlu(pl, inext))
                a = hd(pd, inext)
                if r3 <= d3 and l3 <= d3:
                    dcol[j] = E if a is None else (a,)
                else:
                    dcol[j] = comb3(a, None if r3 <= d3 else qrd(pr, inext), None if l3 <= d3 else qld(pl, inext))
            else:
                src = (uij, dij, rcur, lcur)
                new = []
                for di, own, half, b, upper, quads in recurrence:
                    target = inext if di else jnext
                    pieces = src[own]
                    p = pieces[0]
                    edge = p[b]
                    for o in pieces:
                        # the first extreme piece on ties, as min/max by key
                        if o[b] > edge if upper else o[b] < edge:
                            p, edge = o, o[b]
                    q = half(p, target)
                    acc = [] if q is None else [q]
                    for pk, mm in quads:
                        for o in src[pk]:
                            if o[b] > edge if upper else o[b] < edge:
                                q = mm(o, target)
                                if q is not None:
                                    acc.append(q)
                    new.append(reduce_(acc) or E)
                ucol[j], dcol[j], new_r, new_l = new
            if trace:
                rrow.append(new_r)
                lrow.append(new_l)
            rcur, lcur = new_r, new_l
        rlast, llast = (rcur, lcur) if hi == n else (E, E)
        if trace:
            urows.append(ucol[1:n])
            drows.append(dcol[1:n])

    # --- final check: R/L meet u's last slab, U/D meet v's last slab ------
    final_parts: list = []
    if m == 1 and n == 1:
        if x00 is not None:
            final_parts.append(("X", 1, 1, (x00,)))
    else:
        for kind, i, j, src, last in (
            ("R", m - 1, n, rlast, ipieces[m]),
            ("L", m - 1, n, llast, ipieces[m]),
            ("U", m, n - 1, ucol[n - 1], jpieces[n]),
            ("D", m, n - 1, dcol[n - 1], jpieces[n]),
        ):
            got = tuple(q for q in (meet_bounds(p, last) for p in src) if q is not None)
            if got:
                final_parts.append((kind, i, j, got))
    return ipieces, jpieces, x00, rows, E, final_parts


def extract_witness(trace: LbTrace) -> Optional[tuple[PolyCurve, PolyCurve]]:
    """Read a witness realisation pair off a feasible traced decision.

    Walks the recurrences backward from the lexicographically smallest
    final point, committing the smallest feasible predecessor point at
    each step.  Returns None on infeasible traces.
    """
    if not trace.final_parts:
        return None
    m, n = trace.m, trace.n
    blo, bhi = trace.box_scaled

    (px, py), _, kind, i, j = min(
        (bounds_lexmin(p), "UDRLX".index(kind), kind, i, j)
        for kind, i, j, pieces in trace.final_parts
        for p in pieces
    )
    pu: list = [None] * (m + 1)
    pv: list = [None] * (n + 1)
    if kind == "X":
        pu[1], pv[1] = px, py
    else:
        pu[m], pv[n] = px, py
        while True:
            # U/D points sit on a vertex of u, R/L points on a vertex of v
            vertical = kind in "UD"
            if vertical:
                pu[i] = px
            else:
                pv[j] = py
            cell, slab, _, terms = trace.terms(kind, i, j)
            point = (px, px, py, py, py - px, py - px)
            cands = []
            for order, (pk, cone, pieces) in enumerate(terms):
                # the points from which cone reaches (px, py)
                pre = mink_bounds(point, opposite[cone], blo, bhi)
                for piece in pieces:
                    if slab is not None:
                        piece = meet_bounds(piece, slab)
                        if piece is None:
                            continue
                    q = meet_bounds(pre, piece)
                    if q is not None:
                        cands.append((bounds_lexmin(q), order, pk))
            assert cands, "empty predecessor set in witness backtrack"
            (px, py), _, kind = min(cands)
            if cell is None:
                # the start piece pins both first vertices
                pu[1], pv[1] = px, py
                break
            if slab is not None:
                # a base step crossed the vertex whose slab it met
                if vertical:
                    pv[j] = py
                else:
                    pu[i] = px
            i, j = cell

    assert all(x is not None for x in pu[1:]), "witness left a vertex unpinned"
    assert all(y is not None for y in pv[1:]), "witness left a vertex unpinned"
    for x, (lo, hi) in zip(pu[1:] + pv[1:], trace.hulls):
        assert lo <= x <= hi, "witness outside vertex region"
    s = trace.scale
    wu = tuple(Fraction(x, s) for x in pu[1:])
    wv = tuple(Fraction(y, s) for y in pv[1:])
    assert precise.frechet_decide(wu, wv, Fraction(trace.delta_scaled, s)), "witness fails the precise decision"
    return wu, wv


def _greedy(su: list, sv: list, d: int) -> bool:
    """True if one greedy discrete coupling of the vertex intervals su and
    sv places some realisation pair within d of each other; O(m + n).

    The walk is at a pair (i, j), with x and y the positions of u_i and v_j
    that every earlier step allows.  It steps diagonally when the next two
    intervals come within d, starting afresh, and otherwise takes a single
    step that stays within d, the lagging curve first; the parked vertex is
    narrowed to what the new one allows.  False when it gets stuck."""
    def near(a: tuple, b: tuple) -> Optional[tuple]:
        # the part of interval a within d of interval b
        lo, hi = max(a[0], b[0] - d), min(a[1], b[1] + d)
        return (lo, hi) if lo <= hi else None

    m, n = len(su) - 1, len(sv) - 1
    i = j = 0
    x = near(su[0], sv[0])
    if x is None:
        return False
    y = near(sv[0], x)
    while i < m or j < n:
        if i < m and j < n and (nx := near(su[i + 1], sv[j + 1])):
            i, j, x = i + 1, j + 1, nx
            y = near(sv[j], x)
            continue
        nx = near(su[i + 1], y) if i < m else None
        ny = near(sv[j + 1], x) if j < n else None
        if nx and (i * n <= j * m or not ny):
            i, x = i + 1, nx
            y = near(y, x)
        elif ny:
            j, y = j + 1, ny
            x = near(x, y)
        else:
            return False
    return True


def compute_lb(
    u: UncertainCurve,
    v: UncertainCurve,
    tol: Fraction,
    *,
    strict: bool = False,
) -> Fraction:
    """The smallest feasible delta to within tol.

    Returns a delta_hat with decide_lb(delta_hat) feasible and
    decide_lb(delta_hat - tol) infeasible (deltas <= 0 count as infeasible):
    delta_hat is the smallest feasible multiple g * step, g >= 1, where step
    is the span halved until it is at most tol.  The span, g = 2^k, is
    feasible.

    The curves and step are scaled to ints once (factor 2, so every endpoint
    is even and half distances are ints).  Each probe first walks the greedy
    coupling (_greedy), O(m + n), and is feasible if it accepts; otherwise
    it runs the untraced sweep on decide_lb's clip box directly, which
    evaluates only the cells inside each row's live window.  The filter only
    accepts feasible deltas, so it changes no answer, only how many sweeps
    run.  The search is two model.narrow calls, which rely on the decision
    being monotone in delta.  The first narrows
    deltas with probes from the set C: the pair differences of the sorted
    distinct endpoints E of both curves and of E // 2, and 0.  Its first
    probe is the reach bound L (model.reach_bound), itself a pair difference
    of E: a realisation pair within delta matches its first vertices, its
    last vertices, and each vertex to a point in the span of the other
    curve's regions, so every delta below L is infeasible without a sweep.
    When L is feasible the bracket is then one grid step wide and one probe
    settles the value.  Each later probe is the rank pivot (rank_pivot) of
    the candidates still strictly between the largest delta known infeasible
    and the smallest known feasible, so it removes a quarter of them.  A
    feasible probe c bounds g above by ceil(c / step), an infeasible one
    below by floor(c / step).  Once no candidate is live, the second call
    narrows g: 0 stands for the first grid point (probed if no infeasible
    bound is known yet), then g - 1 is probed once, and bisection finishes
    whatever bracket is left.  So the result equals the plain grid
    bisection's whatever C holds; C only decides how many probes run.  When
    delta* lies in C, the bracket is one grid step wide before the grid
    phase.  In 1D the precise critical values are such distances and half
    distances (Alt and Godau 1995); that delta* of the lower bound lies in C
    was seen on every pair tried, but is not proven.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    (ulo, uhi), (vlo, vhi) = u.span(), v.span()
    span = max(uhi - vlo, vhi - ulo, Fraction(0))
    if span == 0:
        return Fraction(0)
    if span <= tol:
        return tol
    step, top = span, 1
    while step > tol:
        step /= 2
        top *= 2
    hull_u, hull_v = _hulled_intervals(u, v, strict)
    s, ((unit,), *hulls) = scale_to_ints((step,), *hull_u, *hull_v, factor=2)
    su, sv = hulls[: len(hull_u)], hulls[len(hull_u) :]
    ends = sorted({x for h in hulls for x in h})
    lists = (ends, [x // 2 for x in ends])
    reach = reach_bound(su, sv)

    def feasible(d: int) -> bool:
        if _greedy(su, sv, d):
            return True
        *_, final_parts = _sweep(su, sv, d, *_clip_ints(hulls, d, s), False)
        return bool(final_parts)

    def candidate(clo: int, chi: int) -> Optional[int]:
        # deltas in (clo, chi) are undecided, g in (clo // unit, ceil(chi / unit)]
        if -(-chi // unit) - clo // unit <= 1:
            return None
        return reach if clo < reach < chi else rank_pivot(lists, clo, chi)

    # every delta below the reach bound is infeasible
    clo, chi = narrow(feasible, candidate, reach - 1 if 0 < reach < top * unit else 0, top * unit)
    first = -(-chi // unit)

    def grid(lo: int, hi: int) -> Optional[int]:
        # g = 1, then g - 1 while hi is still the phase's first bound, then halves
        if lo < 1 < hi:
            return 1
        return hi - 1 if hi == first and hi - lo > 1 else midpoint(lo, hi)

    _, hi = narrow(lambda g: feasible(g * unit), grid, clo // unit, first)
    return hi * step
