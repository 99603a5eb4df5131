"""Brute-force bounds on uncertain-curve distances by enumerating
realisations over per-vertex candidate grids.

Interval vertices are sampled at `resolution` evenly spaced positions
(endpoints included) plus any injected extra positions that fall inside;
finite sets and precise vertices enumerate exactly.  Enumeration order is
lexicographic over the per-vertex candidate lists, so results and early
exits are deterministic.

bound_oracle scales every candidate of both curves, and stop_at, to ints
in one model.scale_to_ints call, by the variant's factor in precise.CORES
(2 for "frechet", whose critical values include half distances), scans
with the integer cores that table names and converts the bound back to a
Fraction once.  A pair of precise curves has one realisation pair, so its
bound is the precise distance; lbf precise computes it that way.

On that int grid every value is an int, so "strictly better than best"
is "<= best - 1" on the lower side and "not <= best" on the upper side.
The scan computes a pair's full value only when the variant's integer
decision says so; on the lower side it first skips pairs whose endpoint
distance max(|a[0] - b[0]|, |a[-1] - b[-1]|), a lower bound on every
variant, is already >= best.  A skipped pair cannot change best, and
stop_at can only trigger when best changes, so best, the stop position
and the result are those of scanning every pair in full.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import prod
from typing import Iterator

from .model import FiniteSet, Interval, Precise, UncertainCurve, UncertainPoint, scale_to_ints
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
    out: list[list[Fraction]] = []
    for p in curve.points:
        if isinstance(p, Precise):
            out.append([p.x])
        elif isinstance(p, FiniteSet):
            out.append(list(p.xs))
        elif isinstance(p, Interval):
            lo, hi = p.lo, p.hi
            if lo == hi:
                out.append([lo])
                continue
            r = spec.resolution
            grid = [lo + Fraction(k * (hi - lo), r - 1) for k in range(r)]
            out.append(sorted(grid + list(_off_grid(p, spec))))
        else:
            raise TypeError(f"unknown vertex kind {type(p).__name__}")
    return out


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

    A pair's full value is computed only when an integer decision says it
    beats the best so far (see the module docstring); the pairs skipped
    cannot change the best, so neither the result nor where stop_at stops
    the scan differs from a full scan.
    """
    spec = spec or EnumerationSpec()
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    if variant not in CORES:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    dist, decide, factor = CORES[variant]
    if variant == "discrete-weak":
        _check_adjacency(adjacency)
        dist, decide = partial(dist, adjacency=adjacency), partial(decide, adjacency=adjacency)
    check_pairs(u, v, spec)
    cu, cv = vertex_candidates(u, spec), vertex_candidates(v, spec)
    stops = () if stop_at is None else (Fraction(stop_at),)
    s, scaled = scale_to_ints(*cu, *cv, stops, factor=factor)
    iu, iv = scaled[: len(cu)], scaled[len(cu) : -1]
    stop = scaled[-1][0] if stops else None
    return Fraction(_scan(iu, iv, dist, decide, side == "lower", stop), s)


def _scan(cu, cv, dist, decide, lower: bool, stop: int | None) -> int:
    """Min (lower) or max of dist over product(cu) x product(cv) in order,
    stopping at the first pair whose value meets stop.  All values are
    scaled ints; after the first pair, dist runs only on the pairs that
    decide shows strictly better than best (see the module docstring)."""
    best = None
    for ra in itertools.product(*cu):
        for rb in itertools.product(*cv):
            if best is not None:
                if lower:
                    if (
                        abs(ra[0] - rb[0]) >= best
                        or abs(ra[-1] - rb[-1]) >= best
                        or not decide(ra, rb, best - 1)
                    ):
                        continue
                elif decide(ra, rb, best):
                    continue
            best = dist(ra, rb)
            if stop is not None and (best <= stop if lower else best >= stop):
                return best
    return best

