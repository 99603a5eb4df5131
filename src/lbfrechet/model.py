"""Core data model: exact scalars, uncertain points, curves, realisations.

A polygonal curve on the line is just a nonempty tuple of rationals, one per
vertex; consecutive vertices are joined by linear interpolation.  An
uncertain curve replaces each vertex with a region of candidate positions:
a precise point, a closed interval, or a finite set.  A realisation picks
one position inside every vertex region.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional, Sequence, Union

Scalar = Fraction

PolyCurve = tuple[Fraction, ...]


class CurveFormatError(ValueError):
    """Raised when curve JSON or a scalar literal cannot be parsed."""


_SCALAR_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$|^[+-]?\d+/\d+$")


def _ratio(text: str) -> tuple[int, int]:
    """Parse a decimal string like "0.5", a ratio like "4/5" or a JSON
    integer exactly, to (numerator, positive denominator), unreduced."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise CurveFormatError(f"scalar must be a string or an integer, got {reprlib.repr(text)}")
    if isinstance(text, int):
        return text, 1
    t = text.strip()
    if not _SCALAR_RE.match(t):
        raise CurveFormatError(f"not a decimal or ratio literal: {reprlib.repr(text)}")
    # the form is checked, so build from int parts: parsing a Fraction
    # string costs several times more
    num, _, den = t.partition("/")
    whole, _, frac = num.partition(".")
    try:
        a, b = int(whole + frac), int(den) if den else 10 ** len(frac)
    except ValueError as exc:
        raise CurveFormatError(f"bad scalar {reprlib.repr(text)}: {exc}") from exc
    if not b:
        raise CurveFormatError(f"bad scalar {reprlib.repr(text)}: zero denominator")
    return a, b


def parse_scalar(text: str) -> Fraction:
    """Parse a decimal string like "0.5", a ratio like "4/5" or a JSON
    integer exactly."""
    return Fraction(*_ratio(text))


def _exact(x) -> Fraction:
    """x as a Fraction, building a new one only from other types."""
    return x if isinstance(x, Fraction) else Fraction(x)


def format_scalar(value: Fraction) -> str:
    """Format exactly: plain decimal when the denominator is 2^a 5^b, else p/q."""
    value = _exact(value)
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    if value.denominator == 1:
        return str(value.numerator)
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def scale_to_ints(*seqs: Sequence[Fraction], factor: int = 1) -> tuple[int, list[list[int]]]:
    """The one scaling step from exact scalars to ints: s = factor * lcm of
    all denominators, and every value (Fraction or int) times s as an int."""
    s = factor * lcm(*(x.denominator for xs in seqs for x in xs))
    return s, [[x.numerator * (s // x.denominator) for x in xs] for xs in seqs]


def narrow(accepts: Callable, pick: Callable, lo, hi) -> tuple:
    """The one bracket loop of the value searches: probe c = pick(lo, hi)
    with the monotone decision accepts, moving hi to c on acceptance and lo
    on rejection, until pick (inside (lo, hi)) returns None.  Invariant: lo
    is rejected or lies below every value tried, and hi is accepted."""
    while (c := pick(lo, hi)) is not None:
        lo, hi = (lo, c) if accepts(c) else (c, hi)
    return lo, hi


def midpoint(lo: int, hi: int) -> Optional[int]:
    """narrow's bisection pick on ints, None once the bracket is one wide."""
    return (lo + hi) // 2 if hi - lo > 1 else None


def rank_pivot(lists: tuple, lo: int, hi: int) -> Optional[int]:
    """A pair difference xs[j] - xs[i] (i <= j) of some sorted list of
    distinct ints with lo < xs[j] - xs[i] < hi, or None if there is none;
    with lo < 0 the zero differences i = j are among them.

    Per row i the live j form one range, found with two pointers; the pivot
    is the weighted median of the row middles, weighted by row length.  At
    least half the live pairs sit in rows whose middle is at most the pivot,
    and at least half of each such row is at most its middle, so a quarter
    of the live pairs are at most the pivot; likewise at least.  Selection
    in sorted matrices, after Frederickson and Johnson (1984)."""
    rows = []
    for xs in lists:
        n = len(xs)
        a = b = 0
        for x in xs:
            while a < n and xs[a] - x <= lo:
                a += 1
            while b < n and xs[b] - x < hi:
                b += 1
            if b > a:
                rows.append((xs[(a + b - 1) // 2] - x, b - a))
    if not rows:
        return None
    rows.sort()
    total = sum(w for _, w in rows)
    acc = 0
    for mid, w in rows:
        acc += w
        if 2 * acc >= total:
            break
    return mid


def reach_bound(hull_u: Sequence[tuple], hull_v: Sequence[tuple]):
    """L, below which no realisation pair of these vertex hulls ((lo, hi)
    per vertex, ints or Fractions alike) is within any Frechet-type
    distance, continuous or weak; 0 when nothing is excluded.  O(m + n).

    Every matching within delta pairs the first vertices with each other
    and the last with each other, and matches each vertex of one curve to
    a point of the other curve, which lies in the span of that curve's
    vertex hulls.  So delta is at least the gap between the two first
    hulls, between the two last hulls, and between each vertex hull and
    the other curve's span; L is the largest of these gaps."""
    def gap(a: tuple, b: tuple):
        return max(a[0] - b[1], b[0] - a[1])

    span_u = (min(lo for lo, _ in hull_u), max(hi for _, hi in hull_u))
    span_v = (min(lo for lo, _ in hull_v), max(hi for _, hi in hull_v))
    return max(
        0, gap(hull_u[0], hull_v[0]), gap(hull_u[-1], hull_v[-1]),
        *(gap(h, span_v) for h in hull_u), *(gap(h, span_u) for h in hull_v),
    )


def live_windows(hull_u: Sequence[tuple], hull_v: Sequence[tuple], delta) -> list:
    """Per row i = 1..m-1 of the cells (i, j), 1 <= j < n, between the
    vertex hulls I_1..I_m and J_1..J_n (as for reach_bound), the columns
    [lo, hi) from which a path may still reach the last corner within
    delta; lo >= hi when none may.  O(m + n).

    In cell (i, j) both walkers are at or past u_i and v_j and before
    u_{i+1} and v_{j+1}.  From there on, each vertex a > i of u meets a
    point of v at or past v_j, in hull(J_j..J_n), and each vertex b > j of
    v meets a point in hull(I_i..I_m).  So a completion within delta needs
    A(i, j) = max_{a>i} gap(I_a, hull(J_j..J_n)) <= delta and
    B(i, j) = max_{b>j} gap(J_b, hull(I_i..I_m)) <= delta, each O(1) from
    suffix minima and maxima.  A grows with j and B shrinks, so A holds on
    a prefix of the row and B on a suffix; A shrinks and B grows with i, so
    both ends only move right, and two pointers find every window."""
    def suffixes(hulls: Sequence[tuple]) -> list:
        # per k: (min lo, max hi, max lo, min hi) over hulls[k:]
        out = []
        for lo, hi in reversed(hulls):
            if out:
                a, b, c, d = out[-1]
                out.append((min(a, lo), max(b, hi), max(c, lo), min(d, hi)))
            else:
                out.append((lo, hi, lo, hi))
        return out[::-1]

    m, n = len(hull_u), len(hull_v)
    su, sv = suffixes(hull_u), suffixes(hull_v)
    windows = []
    lo = hi = 1
    for i in range(1, m):
        ulo, uhi, _, _ = su[i - 1]  # hull(I_i..I_m)
        _, _, amax, amin = su[i]  # the vertices a > i
        while hi < n and max(amax - sv[hi - 1][1], sv[hi - 1][0] - amin) <= delta:
            hi += 1
        while lo < n and max(sv[lo][2] - uhi, ulo - sv[lo][3]) > delta:
            lo += 1
        windows.append((lo, hi))
    return windows


def coupled(alo: Sequence, ahi: Sequence, blo: Sequence, bhi: Sequence, d, diagonal: bool) -> bool:
    """True if one greedy discrete coupling of the curves a and b keeps
    every coupled pair within d for some realisation pair, where vertex k
    of a lies in [alo[k], ahi[k]] (a precise curve passes one list twice),
    and likewise b; O(m + n), no allocation.

    The walk keeps the ranges [xl, xh] of a_i and [yl, yh] of b_j that
    every earlier step allows, each narrowed to within d of the other (a
    point needs none, as every step is checked).  It steps diagonally when
    diagonal is set and the next two regions come within d, starting
    afresh; otherwise it advances the lagging curve, else the other one, if
    that curve's next region comes within d of the other's range.

    The constraints |x - y| <= d of the coupled pairs form a forest (a
    single step hangs a new vertex on the current edge, a diagonal step
    starts a new tree, a vertex left is never coupled again), so the ranges
    hold exactly the positions of the current edge's ends that extend to
    its whole tree.  Such a coupling bounds the pair's discrete, continuous
    and weak distances (Eiter and Mannila 1994), and it is a discrete weak
    path at adjacency 8, and at adjacency 4 only without diagonal steps."""
    m, n = len(alo) - 1, len(blo) - 1
    i = j = 0
    xl, xh, yl, yh = alo[0], ahi[0], blo[0], bhi[0]
    if xl - yh > d or yl - xh > d:
        return False
    while True:
        if xl < xh:
            if xl < yl - d:
                xl = yl - d
            if xh > yh + d:
                xh = yh + d
        if yl < yh:
            if yl < xl - d:
                yl = xl - d
            if yh > xh + d:
                yh = xh + d
        if diagonal and i < m and j < n and alo[i + 1] - bhi[j + 1] <= d and blo[j + 1] - ahi[i + 1] <= d:
            i += 1
            j += 1
            xl, xh, yl, yh = alo[i], ahi[i], blo[j], bhi[j]
            continue
        step_b = j < n and blo[j + 1] - xh <= d and xl - bhi[j + 1] <= d
        if i < m and alo[i + 1] - yh <= d and yl - ahi[i + 1] <= d and (i * n <= j * m or not step_b):
            i += 1
            xl, xh = alo[i], ahi[i]
        elif step_b:
            j += 1
            yl, yh = blo[j], bhi[j]
        else:
            return i == m and j == n


@dataclass(frozen=True)
class Precise:
    x: Fraction

    def contains(self, value: Fraction) -> bool:
        return value == self.x

    def endpoints(self) -> tuple[Fraction, ...]:
        return (self.x,)

    def span(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.x)

    @property
    def is_precise(self) -> bool:
        return True


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval with lo > hi: [{self.lo}, {self.hi}]")

    @classmethod
    def _ordered(cls, lo: Fraction, hi: Fraction) -> Interval:
        """The interval [lo, hi] from ends the caller has already ordered,
        built without __post_init__'s second compare."""
        p = object.__new__(cls)
        object.__setattr__(p, "lo", lo)
        object.__setattr__(p, "hi", hi)
        return p

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def endpoints(self) -> tuple[Fraction, ...]:
        if self.lo == self.hi:
            return (self.lo,)
        return (self.lo, self.hi)

    def span(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    @property
    def is_precise(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class FiniteSet:
    xs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.xs:
            raise ValueError("finite-set vertex needs at least one position")
        if any(self.xs[k] >= self.xs[k + 1] for k in range(len(self.xs) - 1)):
            raise ValueError("finite-set positions must be strictly increasing")

    def contains(self, value: Fraction) -> bool:
        return value in self.xs

    def endpoints(self) -> tuple[Fraction, ...]:
        return self.xs

    def span(self) -> tuple[Fraction, Fraction]:
        return (self.xs[0], self.xs[-1])

    @property
    def is_precise(self) -> bool:
        return len(self.xs) == 1


UncertainPoint = Union[Precise, Interval, FiniteSet]


def make_set(xs: Iterable[Fraction]) -> UncertainPoint:
    """Build a finite-set vertex, collapsing singletons to a precise point."""
    vals = tuple(sorted(set(map(_exact, xs))))
    if len(vals) == 1:
        return Precise(vals[0])
    return FiniteSet(vals)


def make_interval(lo: Fraction, hi: Fraction) -> UncertainPoint:
    lo, hi = _exact(lo), _exact(hi)
    if lo == hi:
        return Precise(lo)
    return Interval(lo, hi)


@dataclass(frozen=True)
class UncertainCurve:
    points: tuple[UncertainPoint, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("curve needs at least one vertex")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, idx: int) -> UncertainPoint:
        return self.points[idx]

    def reverse(self) -> "UncertainCurve":
        return UncertainCurve(self.points[::-1], self.name)

    def span(self) -> tuple[Fraction, Fraction]:
        los, his = zip(*(p.span() for p in self.points))
        return (min(los), max(his))

    def all_endpoints(self) -> list[Fraction]:
        out: list[Fraction] = []
        for p in self.points:
            out.extend(p.endpoints())
        return out

    @property
    def is_precise(self) -> bool:
        return all(p.is_precise for p in self.points)

    def as_precise(self) -> PolyCurve:
        """The underlying polygonal curve, or raise if any vertex is uncertain."""
        if not self.is_precise:
            raise ValueError("curve has uncertain vertices")
        return tuple(p.span()[0] for p in self.points)


def is_realisation(curve: Sequence[Fraction], uncertain: UncertainCurve) -> bool:
    """True iff curve picks one admissible position per vertex of uncertain."""
    if len(curve) != len(uncertain):
        return False
    return all(p.contains(Fraction(x)) for x, p in zip(curve, uncertain.points))


def reverse(curve: Sequence[Fraction]) -> PolyCurve:
    return tuple(curve)[::-1]


def image(curve: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """The interval swept by the curve: (min vertex, max vertex)."""
    return (min(curve), max(curve))


def growing_curve(curve: Sequence[Fraction]) -> PolyCurve:
    """Reduce a curve to its growing core.

    First drop every vertex already inside the image of the strict prefix,
    then drop interior vertices of the survivor sequence that are not local
    extrema.  The result alternates between strictly increasing maxima and
    strictly decreasing minima, and shares first vertex, image growth, and
    weak-Frechet behaviour with the input.
    """
    pts = [Fraction(x) for x in curve]
    kept = [pts[0]]
    lo = hi = pts[0]
    for x in pts[1:]:
        if x < lo or x > hi:
            kept.append(x)
            lo = min(lo, x)
            hi = max(hi, x)
    if len(kept) <= 2:
        return tuple(kept)
    out = [kept[0]]
    for k in range(1, len(kept) - 1):
        before, here, after = kept[k - 1], kept[k], kept[k + 1]
        if (here > before) != (after > here):
            out.append(here)
    out.append(kept[-1])
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON wire format


def _point_from_json(obj: object) -> UncertainPoint:
    if not isinstance(obj, dict):
        raise CurveFormatError(f"vertex must be an object, got {reprlib.repr(obj)}")
    kind = obj.get("type")
    if kind == "precise":
        return Precise(parse_scalar(obj.get("x")))
    if kind == "interval":
        # the ends are compared once, as a/b against c/d on ints (b, d > 0),
        # and each Fraction and the Interval are built once
        a, b = _ratio(obj.get("lo"))
        c, d = _ratio(obj.get("hi"))
        ad, cb = a * d, c * b
        if ad > cb:
            raise CurveFormatError(f"interval with lo > hi: {reprlib.repr(obj)}")
        if ad == cb:
            return Precise(Fraction(a, b))
        return Interval._ordered(Fraction(a, b), Fraction(c, d))
    if kind == "set":
        xs = obj.get("xs")
        if not isinstance(xs, list) or not xs:
            raise CurveFormatError(f"set vertex needs a nonempty xs list: {reprlib.repr(obj)}")
        return make_set(parse_scalar(x) for x in xs)
    raise CurveFormatError(f"unknown vertex type {reprlib.repr(kind)}")


def _point_to_json(p: UncertainPoint) -> dict:
    if isinstance(p, Precise):
        return {"type": "precise", "x": format_scalar(p.x)}
    if isinstance(p, Interval):
        return {"type": "interval", "lo": format_scalar(p.lo), "hi": format_scalar(p.hi)}
    return {"type": "set", "xs": [format_scalar(x) for x in p.xs]}


def curve_from_json(data: object) -> UncertainCurve:
    """Build a curve from parsed JSON (or a JSON string)."""
    try:
        return _curve_from_json(data)
    except RecursionError:
        # met by the JSON parser; error messages quote a bounded repr
        raise CurveFormatError("curve JSON nested too deeply") from None


def _curve_from_json(data: object) -> UncertainCurve:
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise CurveFormatError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CurveFormatError("curve JSON must be an object")
    dim = data.get("dimension", 1)
    if type(dim) is not int or dim != 1:  # True and 1.0 also compare equal to 1
        raise CurveFormatError(f"only 1D curves are supported, got dimension {reprlib.repr(dim)}")
    pts = data.get("points")
    if not isinstance(pts, list) or not pts:
        raise CurveFormatError("curve needs a nonempty points list")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise CurveFormatError("curve name must be a string")
    return UncertainCurve(tuple(_point_from_json(p) for p in pts), name)


def curve_to_json(curve: UncertainCurve) -> dict:
    out: dict = {"dimension": 1}
    if curve.name:
        out["name"] = curve.name
    out["points"] = [_point_to_json(p) for p in curve.points]
    return out


def load_curve(path: str) -> UncertainCurve:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CurveFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CurveFormatError(f"{path}: bad JSON: {exc}") from exc
    except RecursionError:
        raise CurveFormatError(f"{path}: bad JSON: nested too deeply") from None
    return curve_from_json(data)
