"""Brute-force bounds on uncertain-curve distances by enumerating
realisations over per-vertex candidate grids.

Interval vertices are sampled at `resolution` evenly spaced positions
(endpoints included) plus any injected extra positions that fall inside;
finite sets and precise vertices enumerate exactly.  Enumeration order is
lexicographic over the per-vertex candidate lists, so results and early
exits are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Callable, Iterator, Sequence

from .model import FiniteSet, Interval, Precise, UncertainCurve
from .precise import discrete_frechet, discrete_weak, frechet_value, weak_frechet_1d

VARIANTS = ("frechet", "discrete", "weak", "discrete-weak")


class CapExceeded(RuntimeError):
    """The enumeration would visit more realisation pairs than the cap."""


@dataclass(frozen=True)
class EnumerationSpec:
    resolution: int = 2
    include_positions: tuple[Fraction, ...] = ()
    cap: int = 1_000_000

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
            vals = {lo + Fraction(k * (hi - lo), r - 1) for k in range(r)}
            vals.update(x for x in spec.include_positions if lo <= x <= hi)
            out.append(sorted(vals))
        else:
            raise TypeError(f"unknown vertex kind {type(p).__name__}")
    return out


def enumeration_size(curve: UncertainCurve, spec: EnumerationSpec) -> int:
    return prod(map(len, vertex_candidates(curve, spec)))


def enumerate_realisations(
    curve: UncertainCurve, spec: EnumerationSpec
) -> Iterator[tuple[Fraction, ...]]:
    """All candidate realisations in lexicographic order."""
    cands = vertex_candidates(curve, spec)
    size = prod(map(len, cands))
    if size > spec.cap:
        raise CapExceeded(f"enumeration of {size} realisations exceeds cap {spec.cap}")
    return itertools.product(*cands)


def _metric(variant: str, adjacency: int) -> Callable:
    if variant == "frechet":
        return frechet_value
    if variant == "discrete":
        return discrete_frechet
    if variant == "weak":
        return weak_frechet_1d
    if variant == "discrete-weak":
        return lambda a, b: discrete_weak(a, b, adjacency)
    raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def bound_oracle(
    u: UncertainCurve,
    v: UncertainCurve,
    variant: str,
    side: str,
    spec: EnumerationSpec | None = None,
    *,
    adjacency: int = 8,
    stop_at: Fraction | None = None,
    jobs: int = 1,
) -> Fraction:
    """Min (side="lower") or max (side="upper") of the chosen distance over
    all enumerated realisation pairs.

    With stop_at set, enumeration stops as soon as the bound is at least
    as strong as stop_at (lower <= stop_at, upper >= stop_at); the result
    is then decision grade only.  The pair product must fit the cap.
    """
    spec = spec or EnumerationSpec()
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    cu = vertex_candidates(u, spec)
    cv = vertex_candidates(v, spec)
    nu, nv = prod(map(len, cu)), prod(map(len, cv))
    if nu * nv > spec.cap:
        raise CapExceeded(f"{nu} x {nv} realisation pairs exceed cap {spec.cap}")
    dist = _metric(variant, adjacency)
    stop = None if stop_at is None else Fraction(stop_at)
    if jobs > 1:
        return _bound_parallel(cu, cv, variant, side, adjacency, jobs, stop)
    return _scan(itertools.product(*cu), cv, dist, side, stop)


def _meets(best: Fraction, side: str, stop: Fraction | None) -> bool:
    if stop is None:
        return False
    return best <= stop if side == "lower" else best >= stop


def _scan(us, cv, dist, side, stop) -> Fraction | None:
    """Min or max of dist over us x product(cv) in order, stopping at the
    first pair whose value meets stop."""
    best = None
    for ra in us:
        for rb in itertools.product(*cv):
            d = dist(ra, rb)
            if best is None or (d < best if side == "lower" else d > best):
                best = d
            if _meets(best, side, stop):
                return best
    return best


def _eval_chunk(args) -> Fraction | None:
    cu_chunk, cv, variant, side, adjacency, stop = args
    return _scan(cu_chunk, cv, _metric(variant, adjacency), side, stop)


def _bound_parallel(cu, cv, variant, side, adjacency, jobs, stop) -> Fraction:
    """Deterministic parallel evaluation: split the first curve's
    realisations into chunks, each stopping at its first hit.  The first
    chunk in order that meets stop holds the serial scan's first hit and
    returns its value; otherwise reduce with min/max."""
    from concurrent.futures import ProcessPoolExecutor

    all_u = list(itertools.product(*cu))
    chunk = max(1, (len(all_u) + jobs - 1) // jobs)
    tasks = [
        (all_u[k : k + chunk], cv, variant, side, adjacency, stop)
        for k in range(0, len(all_u), chunk)
    ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = [r for r in pool.map(_eval_chunk, tasks) if r is not None]
    for r in results:
        if _meets(r, side, stop):
            return r
    if side == "lower":
        return min(results)
    return max(results)
