"""Exact plane regions bounded by horizontal, vertical, and slope-1 edges.

Every convex region whose edges are axis-parallel or have slope one is the
solution set of six bounds: xlo <= x <= xhi, ylo <= y <= yhi, and
dlo <= y - x <= dhi.  That triple of intervals is a difference-constraint
system on (x, y); tightening it to its closure makes every stored bound
attained, which turns containment and emptiness into plain comparisons.
A region is a finite union of such pieces inside a common clipping square.

Counterclockwise from its lowest-leftmost corner (xlo, ylo), a closed piece
has the edges y = ylo, y - x = dlo, x = xhi, y = yhi, y - x = dhi and
x = xlo, in that order; any of them may shrink to a point.  Its corners are
the ends of those edges, which bounds_vertices walks in the same order.

All bound arithmetic is +, -, min, max and comparisons, so the same code
runs on Fractions and on pre-scaled ints.  The coverage test scales its
pieces to ints itself, with model.scale_to_ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .model import format_scalar, scale_to_ints

Bounds = tuple  # (xlo, xhi, ylo, yhi, dlo, dhi)


class Cone(Enum):
    """Directions of free movement for Minkowski sums.

    Q_* are closed quadrants (two free signed axes), H_* closed half-planes
    (one signed axis, the other unconstrained), S_* closed axis rays (one
    signed axis, the other pinned to zero).  R right, L left, U up, D down.
    """

    Q_RU = "Q_RU"
    Q_LU = "Q_LU"
    Q_RD = "Q_RD"
    Q_LD = "Q_LD"
    H_R = "H_R"
    H_L = "H_L"
    H_U = "H_U"
    H_D = "H_D"
    S_R = "S_R"
    S_L = "S_L"
    S_U = "S_U"
    S_D = "S_D"


# Which of (xlo, xhi, ylo, yhi, dlo, dhi) survive a Minkowski sum with each
# cone; the rest relax to the clipping square.  A bound survives exactly
# when no cone direction can push past it.
_KEEP = {
    Cone.Q_RU: (True, False, True, False, False, False),
    Cone.Q_LU: (False, True, True, False, True, False),
    Cone.Q_RD: (True, False, False, True, False, True),
    Cone.Q_LD: (False, True, False, True, False, False),
    Cone.H_R: (True, False, False, False, False, False),
    Cone.H_L: (False, True, False, False, False, False),
    Cone.H_U: (False, False, True, False, False, False),
    Cone.H_D: (False, False, False, True, False, False),
    Cone.S_R: (True, False, True, True, False, True),
    Cone.S_L: (False, True, True, True, True, False),
    Cone.S_U: (True, True, True, False, True, False),
    Cone.S_D: (True, True, False, True, False, True),
}

# The cone of opposite directions: R and L, U and D swapped in the name.
# The points from which cone c reaches a point z make up the Minkowski sum
# of z with opposite[c].
opposite = {c: Cone(c.value.translate(str.maketrans("RLUD", "LRDU"))) for c in Cone}


def close_bounds(xlo, xhi, ylo, yhi, dlo, dhi) -> Optional[Bounds]:
    """Tighten six bounds to their closure, or None when inconsistent.

    A three-node difference system closes with two-hop paths only, so each
    tightened bound is a single min/max over the original bounds.
    """
    dhi2 = dhi if dhi <= yhi - xlo else yhi - xlo
    dlo2 = dlo if dlo >= ylo - xhi else ylo - xhi
    yhi2 = yhi if yhi <= xhi + dhi else xhi + dhi
    ylo2 = ylo if ylo >= xlo + dlo else xlo + dlo
    xhi2 = xhi if xhi <= yhi - dlo else yhi - dlo
    xlo2 = xlo if xlo >= ylo - dhi else ylo - dhi
    if xlo2 > xhi2 or ylo2 > yhi2 or dlo2 > dhi2:
        return None
    return (xlo2, xhi2, ylo2, yhi2, dlo2, dhi2)


def meet_bounds(a: Bounds, b: Bounds) -> Optional[Bounds]:
    return close_bounds(
        a[0] if a[0] >= b[0] else b[0],
        a[1] if a[1] <= b[1] else b[1],
        a[2] if a[2] >= b[2] else b[2],
        a[3] if a[3] <= b[3] else b[3],
        a[4] if a[4] >= b[4] else b[4],
        a[5] if a[5] <= b[5] else b[5],
    )


def mink_bounds(p: Bounds, cone: Cone, blo, bhi) -> Bounds:
    """Minkowski sum of a closed nonempty piece with a cone, relaxed to the
    clipping square."""
    keep = _KEEP[cone]
    dspan = bhi - blo
    out = close_bounds(
        p[0] if keep[0] else blo,
        p[1] if keep[1] else bhi,
        p[2] if keep[2] else blo,
        p[3] if keep[3] else bhi,
        p[4] if keep[4] else -dspan,
        p[5] if keep[5] else dspan,
    )
    assert out is not None
    return out


# Fused cone-relax-then-meet kernels for the propagation inner loop.
#
# Each _mm_* computes meet_bounds(mink_bounds(p, cone, blo, bhi), q) under
# two preconditions that the sweep guarantees: q is closed, nonempty, and
# lies inside the clipping square, and p is closed and nonempty, or else p
# is the sweep's stand-in for an empty region, (bhi + 1, blo - 1, bhi + 1,
# blo - 1, bhi - blo + 1, blo - bhi - 1), which lies beyond the square on
# every bound: every kernel (and meet_bounds) returns None for it, as q's
# bounds lie inside the square, with |y - x| <= bhi - blo.  The box
# arguments disappear because meeting with a piece already inside the square
# makes the relax-to-square step a no-op.  Only the components the cone
# keeps survive into the meet, so most of the generic closure collapses:
# for a closed q, bounds like min(q.yhi, q.xhi + q.dhi) equal q.yhi again.
# The remaining tightenings are written out with original (pre-tightening)
# operands on the right-hand sides, which is exactly the two-hop closure,
# and the only emptiness checks left are the ones the kept components can
# still violate.  Each kernel returns the closed meet, q itself when the
# meet leaves q unchanged, or None when it is empty.


def _mm_h_r(p, q):
    x = p[0]
    q0, q1, q2, q3, q4, q5 = q
    if x <= q0:
        return q
    if x > q1:
        return None
    dhi = q3 - x
    if dhi > q5:
        dhi = q5
    ylo = x + q4
    if ylo < q2:
        ylo = q2
    return (x, q1, ylo, q3, q4, dhi)


def _mm_h_l(p, q):
    x = p[1]
    q0, q1, q2, q3, q4, q5 = q
    if x >= q1:
        return q
    if x < q0:
        return None
    dlo = q2 - x
    if dlo < q4:
        dlo = q4
    yhi = x + q5
    if yhi > q3:
        yhi = q3
    return (q0, x, q2, yhi, dlo, q5)


def _mm_h_u(p, q):
    y = p[2]
    q0, q1, q2, q3, q4, q5 = q
    if y <= q2:
        return q
    if y > q3:
        return None
    dlo = y - q1
    if dlo < q4:
        dlo = q4
    xlo = y - q5
    if xlo < q0:
        xlo = q0
    return (xlo, q1, y, q3, dlo, q5)


def _mm_h_d(p, q):
    y = p[3]
    q0, q1, q2, q3, q4, q5 = q
    if y >= q3:
        return q
    if y < q2:
        return None
    dhi = y - q0
    if dhi > q5:
        dhi = q5
    xhi = y - q4
    if xhi > q1:
        xhi = q1
    return (q0, xhi, q2, y, q4, dhi)


def _mm_q_ru(p, q):
    x, _, y, _, _, _ = p
    q0, q1, q2, q3, q4, q5 = q
    if x < q0:
        x = q0
    if y < q2:
        y = q2
    if x == q0 and y == q2:
        return q
    if x > q1 or y > q3:
        return None
    t = y - q1
    dlo = q4 if q4 >= t else t
    t = q3 - x
    # dlo <= dhi, as x <= q1, y <= q3 and a closed q has q4 <= q5, q1 <= q3 - q4, q3 <= q1 + q5
    dhi = q5 if q5 <= t else t
    t = y - q5
    xlo = x if x >= t else t
    t = x + q4
    ylo = y if y >= t else t
    return (xlo, q1, ylo, q3, dlo, dhi)


def _mm_q_ld(p, q):
    _, x, _, y, _, _ = p
    q0, q1, q2, q3, q4, q5 = q
    if x > q1:
        x = q1
    if y > q3:
        y = q3
    if x == q1 and y == q3:
        return q
    if x < q0 or y < q2:
        return None
    t = q2 - x
    dlo = q4 if q4 >= t else t
    t = y - q0
    # dlo <= dhi, as x >= q0, y >= q2 and a closed q has q4 <= q5, q0 >= q2 - q5, q2 >= q0 + q4
    dhi = q5 if q5 <= t else t
    t = y - q4
    xhi = x if x <= t else t
    t = x + q5
    yhi = y if y <= t else t
    return (q0, xhi, q2, yhi, dlo, dhi)


def _mm_q_lu(p, q):
    _, xhi0, ylo0, _, dlo0, _ = p
    q0, q1, q2, q3, q4, q5 = q
    if xhi0 > q1:
        xhi0 = q1
    if ylo0 < q2:
        ylo0 = q2
    if dlo0 < q4:
        dlo0 = q4
    if xhi0 == q1 and ylo0 == q2 and dlo0 == q4:
        return q
    t = ylo0 - xhi0
    dlo = dlo0 if dlo0 >= t else t
    if dlo > q5:
        return None
    t = ylo0 - q5
    xlo = q0 if q0 >= t else t
    t = q3 - dlo0
    xhi = xhi0 if xhi0 <= t else t
    if xlo > xhi:
        return None
    t = q0 + dlo0
    ylo = ylo0 if ylo0 >= t else t
    t = xhi0 + q5
    yhi = q3 if q3 <= t else t
    if ylo > yhi:
        return None
    return (xlo, xhi, ylo, yhi, dlo, q5)


def _mm_q_rd(p, q):
    xlo0, _, _, yhi0, _, dhi0 = p
    q0, q1, q2, q3, q4, q5 = q
    if xlo0 < q0:
        xlo0 = q0
    if yhi0 > q3:
        yhi0 = q3
    if dhi0 > q5:
        dhi0 = q5
    if xlo0 == q0 and yhi0 == q3 and dhi0 == q5:
        return q
    t = yhi0 - xlo0
    dhi = dhi0 if dhi0 <= t else t
    if dhi < q4:
        return None
    t = q2 - dhi0
    xlo = xlo0 if xlo0 >= t else t
    t = yhi0 - q4
    xhi = q1 if q1 <= t else t
    if xlo > xhi:
        return None
    t = xlo0 + q4
    ylo = q2 if q2 >= t else t
    t = q1 + dhi0
    yhi = yhi0 if yhi0 <= t else t
    if ylo > yhi:
        return None
    return (xlo, xhi, ylo, yhi, q4, dhi)


def bounds_contain(p: Bounds, x, y) -> bool:
    return p[0] <= x <= p[1] and p[2] <= y <= p[3] and p[4] <= y - x <= p[5]


def bounds_subset(p: Bounds, q: Bounds) -> bool:
    """p inside q; exact when p is closed (all of p's bounds are attained)."""
    return (
        p[0] >= q[0]
        and p[1] <= q[1]
        and p[2] >= q[2]
        and p[3] <= q[3]
        and p[4] >= q[4]
        and p[5] <= q[5]
    )


def bounds_hull(p: Bounds, q: Bounds) -> Bounds:
    out = close_bounds(
        p[0] if p[0] <= q[0] else q[0],
        p[1] if p[1] >= q[1] else q[1],
        p[2] if p[2] <= q[2] else q[2],
        p[3] if p[3] >= q[3] else q[3],
        p[4] if p[4] <= q[4] else q[4],
        p[5] if p[5] >= q[5] else q[5],
    )
    assert out is not None
    return out


def bounds_lexmin(p: Bounds) -> tuple:
    """The point of p with smallest x, then smallest y among those."""
    x = p[0]
    y = p[2] if p[2] >= x + p[4] else x + p[4]
    return (x, y)


# ---------------------------------------------------------------------------
# Coverage tests.
#
# To decide whether a piece is covered by a union of pieces, peel the cover
# constraints off one piece at a time, keeping the leftover cells.
# Leftovers need strict inequalities, so cells are encoded on an integer
# grid scaled by 8 with strict bounds pulled in by 1: a comparison after
# closure mixes at most four original bounds, and a cumulative strictness
# defect below 8 can never flip a comparison between true grid values.

_STRICT_SCALE = 8


def _cell_bound(cell, k: int, value: int, upper: bool):
    c = list(cell)
    if upper:
        if value < c[2 * k + 1]:
            c[2 * k + 1] = value
    else:
        if value > c[2 * k]:
            c[2 * k] = value
    return close_bounds(*c)


def bounds_covered(target: Bounds, cover: Sequence[Bounds]) -> bool:
    """True iff the target piece is inside the union of the cover pieces."""
    _, scaled = scale_to_ints(target, *cover, factor=_STRICT_SCALE)
    cells = [scaled[0]]
    for q in scaled[1:]:
        if not cells:
            return True
        remains: list = []
        for cell in cells:
            if meet_bounds(cell, q) is None:
                remains.append(cell)
                continue
            # no bound below empties rem: it keeps cell & q, which is nonempty
            rem = cell
            for k in range(3):
                lo, hi = q[2 * k], q[2 * k + 1]
                part = _cell_bound(rem, k, lo - 1, upper=True)
                if part is not None:
                    remains.append(part)
                rem = _cell_bound(rem, k, lo, upper=False)
                part = _cell_bound(rem, k, hi + 1, upper=False)
                if part is not None:
                    remains.append(part)
                rem = _cell_bound(rem, k, hi, upper=True)
            # Whatever remains of rem lies inside q and is discarded.
        cells = remains
    return not cells


def normalize_pieces(pieces: Iterable[Optional[Bounds]]) -> tuple[Bounds, ...]:
    """Drop empty and contained pieces, then merge pairs whose union is
    convex, to a fixpoint.  Deterministic: the output is sorted."""
    ps: list[Bounds] = []
    for p in pieces:
        if p is not None and p not in ps:
            ps.append(p)
    changed = True
    while changed:
        changed = False
        drop = set()
        for i, p in enumerate(ps):
            for j, q in enumerate(ps):
                if i != j and j not in drop and i not in drop and bounds_subset(p, q):
                    drop.add(i)
                    break
        if drop:
            ps = [p for i, p in enumerate(ps) if i not in drop]
        n = len(ps)
        for i in range(n):
            if changed:
                break
            for j in range(i + 1, n):
                h = bounds_hull(ps[i], ps[j])
                if bounds_covered(h, (ps[i], ps[j])):
                    ps = [p for k, p in enumerate(ps) if k not in (i, j)]
                    ps.append(h)
                    changed = True
                    break
    ps.sort()
    return tuple(ps)


def bounds_vertices(p: Bounds) -> list[tuple]:
    """Corner points of a closed piece, counterclockwise from the
    lowest-leftmost: the ends of its six edges in walk order, with
    repeated points dropped."""
    xlo, xhi, ylo, yhi, dlo, dhi = p
    out: list[tuple] = []
    for c in (
        (xlo, ylo),
        (ylo - dlo, ylo),
        (xhi, xhi + dlo),
        (xhi, yhi),
        (yhi - dhi, yhi),
        (xlo, xlo + dhi),
    ):
        if not out or c != out[-1]:
            out.append(c)
    if len(out) > 1 and out[-1] == out[0]:
        out.pop()
    return out


def dump_line(p: Bounds, scale: int = 1) -> str:
    """The dump line of a closed piece: its corners as "(x,y)" in walk
    order, every coordinate divided by scale."""
    return " ".join(
        f"({format_scalar(Fraction(x, scale))},{format_scalar(Fraction(y, scale))})"
        for x, y in bounds_vertices(p)
    )


# ---------------------------------------------------------------------------
# Public wrappers


@dataclass(frozen=True)
class ClipBox:
    """The square [lo, hi] x [lo, hi] every region is clipped to."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"clip box needs lo < hi, got [{self.lo}, {self.hi}]")

    def full_bounds(self) -> Bounds:
        span = self.hi - self.lo
        return (self.lo, self.hi, self.lo, self.hi, -span, span)


@dataclass(frozen=True)
class Region:
    """A finite union of convex pieces, each closed Bounds, inside a clip box."""

    pieces: tuple[Bounds, ...]
    box: ClipBox

    @staticmethod
    def from_bounds(pieces: Iterable[Optional[Bounds]], box: ClipBox) -> "Region":
        clip = box.full_bounds()
        clipped = [meet_bounds(p, clip) for p in pieces if p is not None]
        return Region(normalize_pieces(clipped), box)

    def contains(self, x, y) -> bool:
        x, y = Fraction(x), Fraction(y)
        return any(bounds_contain(p, x, y) for p in self.pieces)

    def subset(self, other: "Region") -> bool:
        """Every piece of self lies inside the union of other's pieces."""
        return all(bounds_covered(p, other.pieces) for p in self.pieces)

    def equals(self, other: "Region") -> bool:
        return self.subset(other) and other.subset(self)

    def x_projection(self) -> list[tuple[Fraction, Fraction]]:
        """The projection onto the x axis as disjoint sorted intervals."""
        spans = sorted(p[:2] for p in self.pieces)
        out: list[tuple[Fraction, Fraction]] = []
        for lo, hi in spans:
            if out and lo <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        return out

    def dump_lines(self) -> list[str]:
        """One piece per line, each a counterclockwise vertex list."""
        return [dump_line(p) for p in self.pieces]

