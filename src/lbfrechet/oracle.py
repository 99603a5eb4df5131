"""Brute-force bounds on uncertain-curve distances by enumerating
realisations over per-vertex candidate grids.

Interval vertices are sampled at `resolution` evenly spaced positions
(endpoints included) plus any injected extra positions that fall inside;
finite sets and precise vertices enumerate exactly.  Enumeration order is
lexicographic over the per-vertex candidate lists, so results and early
exits are deterministic.

The grids are built on ints: one model.scale_to_ints call scales every
vertex's endpoints, the include positions and stop_at by the variant's
factor in precise.CORES (2 for "frechet", whose critical values include
half distances) times resolution - 1, so each grid step is an int.
bound_oracle scans those lists with the integer cores that table names
and converts the bound back to a Fraction once; vertex_candidates is
their Fraction view.  A pair of precise curves has one realisation pair,
so its bound is the precise distance; lbf precise computes it that way.

On that int grid every value is an int, so "strictly better than best"
is "<= best - 1" on the lower side and "> best" on the upper side.  After
the first pair the scan calls each core with the bracket that says so
(hi = best - 1 below, lo = best above; see precise), so a core returns a
pair's exact value only when it beats best and may stop early otherwise.
On the lower side it first skips pairs whose endpoint distance
max(|a[0] - b[0]|, |a[-1] - b[-1]|), a lower bound on every variant, is
already >= best.  On the upper side it first skips pairs that the
coupling walk model.coupled (O(m + n), the one lbf value also runs, here
on points) keeps within best: a coupling bounds every variant from
above, with diagonal steps for all but the discrete weak distance at
adjacency 4, whose paths move along one axis at a time.  So on both
sides a skipped pair cannot change best, and stop_at can only trigger
when best changes, so best, the stop position and the result are those
of scanning every pair in full.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import prod
from typing import Iterator

from .model import FiniteSet, Interval, UncertainCurve, UncertainPoint, coupled, scale_to_ints
from .precise import CORES, _check_adjacency

# The public metric of each variant.  The scan calls the integer cores
# in CORES; perfbench/tracing.py still looks these names up on this module.
from .precise import discrete_frechet, discrete_weak, frechet_value, weak_frechet_1d  # noqa: F401

VARIANTS = tuple(CORES)

# Most realisations (or pairs of them) one enumeration may visit.
DEFAULT_ENUMERATION_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """The enumeration would visit more realisation pairs than the cap."""


@dataclass(frozen=True)
class EnumerationSpec:
    resolution: int = 2
    include_positions: tuple[Fraction, ...] = ()
    cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution}")
        if self.cap <= 0:
            raise ValueError(f"cap must be positive, got {self.cap}")
        object.__setattr__(
            self,
            "include_positions",
            tuple(Fraction(x) for x in self.include_positions),
        )


def vertex_candidates(curve: UncertainCurve, spec: EnumerationSpec) -> list[list[Fraction]]:
    """Per-vertex sorted candidate positions."""
    s, cands, _ = _scaled_candidates(curve.points, spec, (), 1)
    return [[Fraction(x, s) for x in xs] for xs in cands]


def _scaled_candidates(points, spec: EnumerationSpec, extra, factor: int) -> tuple:
    """(s, each vertex's sorted candidates, extra), all as ints times s,
    from one model.scale_to_ints call over the vertices' endpoints, the
    include positions and extra, by factor * (resolution - 1): each step
    (hi - lo) / (r - 1) is then an int, the grid is lo + k * step, and an
    include position in [lo, hi] is off it when (x - lo) % step != 0."""
    r = spec.resolution
    s, (*ends, inc, extra) = scale_to_ints(
        *(p.endpoints() for p in points), spec.include_positions, extra, factor=factor * (r - 1)
    )
    for k, (p, xs) in enumerate(zip(points, ends)):
        if isinstance(p, Interval) and len(xs) == 2:
            lo, hi = xs
            step = (hi - lo) // (r - 1)
            off = {x for x in inc if lo <= x <= hi and (x - lo) % step}
            ends[k] = sorted([*range(lo, hi + 1, step), *off])
    return s, ends, extra


def _off_grid(p: Interval, spec: EnumerationSpec) -> set[Fraction]:
    """The include positions inside the interval p (lo < hi) that its r grid
    points miss: x is on the grid when (x - lo) (r - 1) / (hi - lo) is an
    integer."""
    r, lo, hi = spec.resolution, p.lo, p.hi
    return {
        x for x in spec.include_positions
        if lo <= x <= hi and ((x - lo) * (r - 1) / (hi - lo)).denominator != 1
    }


def _candidate_count(p: UncertainPoint, spec: EnumerationSpec) -> int:
    """len(vertex_candidates) of the vertex p, without listing them."""
    if isinstance(p, FiniteSet):
        return len(p.xs)
    if not isinstance(p, Interval) or p.lo == p.hi:
        return 1
    return spec.resolution + len(_off_grid(p, spec))


def enumeration_size(curve: UncertainCurve, spec: EnumerationSpec) -> int:
    """The number of candidate realisations, counted before any is built."""
    return prod(_candidate_count(p, spec) for p in curve.points)


def count_text(n: int) -> str:
    """A count for a cap message: in full up to 30 digits, else a power of
    ten below it, as str() refuses ints of more than 4300 digits."""
    if n < 10**30:
        return str(n)
    # 0.30102 < log10(2), so 10^k < 2^(bit_length - 1) <= n
    return f"more than 10^{(n.bit_length() - 1) * 30102 // 100000}"


def check_cap(curve: UncertainCurve, spec: EnumerationSpec) -> int:
    """The curve's realisation count; raise CapExceeded above the cap."""
    size = enumeration_size(curve, spec)
    if size > spec.cap:
        raise CapExceeded(
            f"enumeration of {count_text(size)} realisations exceeds cap {count_text(spec.cap)}"
        )
    return size


def check_pairs(u: UncertainCurve, v: UncertainCurve, spec: EnumerationSpec) -> int:
    """The count of realisation pairs; raise CapExceeded above the cap."""
    nu, nv = enumeration_size(u, spec), enumeration_size(v, spec)
    if nu * nv > spec.cap:
        raise CapExceeded(
            f"{count_text(nu)} x {count_text(nv)} realisation pairs exceed cap {count_text(spec.cap)}"
        )
    return nu * nv


def enumerate_realisations(
    curve: UncertainCurve, spec: EnumerationSpec
) -> Iterator[tuple[Fraction, ...]]:
    """All candidate realisations in lexicographic order."""
    check_cap(curve, spec)
    return itertools.product(*vertex_candidates(curve, spec))


def bound_oracle(
    u: UncertainCurve,
    v: UncertainCurve,
    variant: str,
    side: str,
    spec: EnumerationSpec | None = None,
    *,
    adjacency: int = 8,
    stop_at: Fraction | None = None,
) -> Fraction:
    """Min (side="lower") or max (side="upper") of the chosen distance over
    all enumerated realisation pairs.

    With stop_at set, enumeration stops as soon as the bound is at least
    as strong as stop_at (lower <= stop_at, upper >= stop_at); the result
    is then decision grade only.  The pair product must fit the cap.

    A pair's exact value is computed only when it beats the best so far
    (see the module docstring); the pairs that do not cannot change the
    best, so neither the result nor where stop_at stops the scan differs
    from a full scan.
    """
    spec = spec or EnumerationSpec()
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    if variant not in CORES:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    dist, factor = CORES[variant]
    if variant == "discrete-weak":
        _check_adjacency(adjacency)
        dist = partial(dist, adjacency=adjacency)
    check_pairs(u, v, spec)
    stops = () if stop_at is None else (Fraction(stop_at),)
    s, cands, stops = _scaled_candidates((*u.points, *v.points), spec, stops, factor)
    stop = stops[0] if stops else None
    # a diagonal step is a path step of the discrete weak grid only at
    # adjacency 8
    diagonal = variant != "discrete-weak" or adjacency == 8
    lower = side == "lower"
    return Fraction(_scan(cands[: len(u)], cands[len(u) :], dist, lower, stop, diagonal), s)


def _scan(cu, cv, dist, lower: bool, stop: int | None, diagonal: bool) -> int:
    """Min (lower) or max of dist over product(cu) x product(cv) in order,
    stopping at the first pair whose value meets stop.  All values are
    scaled ints; after the first pair, a pair that a cheap check shows
    cannot beat best is skipped (the endpoint distance below, the coupling
    walk model.coupled with the given diagonal flag above, each realisation
    passed as both bound lists), and dist gets the bracket of the values
    strictly better than best (see the module docstring)."""
    best = None
    for ra in itertools.product(*cu):
        for rb in itertools.product(*cv):
            if best is None:
                value = dist(ra, rb)
            elif lower:
                if abs(ra[0] - rb[0]) >= best or abs(ra[-1] - rb[-1]) >= best:
                    continue
                value = dist(ra, rb, hi=best - 1)
                if value >= best:
                    continue
            else:
                if coupled(ra, ra, rb, rb, best, diagonal):
                    continue
                value = dist(ra, rb, lo=best)
                if value <= best:
                    continue
            best = value
            if stop is not None and (best <= stop if lower else best >= stop):
                return best
    return best
