"""Seeded workload generation.

Every workload is a fixed list of `lbf` operations over files written here
from a seed: curves through `model.curve_to_json`, formulas as DIMACS.  The
program under test only ever sees those files.  Each operation also carries
what the answer check needs (the in-memory curves, the planted answer), so
checking never re-reads the program's own parsing.

The shapes (sizes, counts, families) are fixed constants; the seed only
draws values.  That keeps the work per pass nearly the same across seeds,
which is what lets two sets of runs with different seeds agree.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

from lbfrechet.model import Precise, UncertainCurve, curve_to_json, make_interval
from lbfrechet.reductions import CnfFormula

WORKLOADS = ("lb-decide", "lb-witness-value", "exhaustive")
FAMILIES = ("alt", "rand", "prime")

# lb-decide: one grid size for every decision, so ns per cell is comparable
# across instances; three families, each half planted-feasible and half
# planted-infeasible.
DECIDE_N = 100
DECIDE_PER_FAMILY = 34

# lb-witness-value: the traced sweep keeps every cell's tables, so memory and
# time grow O(mn).  Four instances per family and kind, because one
# instance's cost varies by up to a half from seed to seed; the sizes keep
# one pass to about five seconds.
WITNESS_N = 64
VALUE_N = 48
PER_FAMILY = 4
VALUE_TOL = F(1, 1_000_000)

# exhaustive: the ub formula named by the acceptance suite's criterion 8.
UB_FORMULA = CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3)))
# Weak-reduction formulas whose verification fits the default cap; the
# indecisive model enumerates three-way choices per clause slot, so it only
# gets the short ones.  The seed relabels variables and flips polarities,
# which keeps each formula's size and satisfiability.
WEAK_FORMULAS = {
    "indecisive": (
        CnfFormula(1, ((1,), (-1,))),
        CnfFormula(2, ((1, 2), (-1, -2))),
        CnfFormula(2, ((1, -2),)),
    ),
    "imprecise": (
        CnfFormula(3, ((1, 2, 3), (-1, 2, -3))),
        CnfFormula(3, ((1, 2), (-1, 3))),
        CnfFormula(2, ((1,), (-1,), (2,))),
    ),
}
ORACLE_VARIANTS = ("frechet", "discrete", "weak", "discrete-weak")
ORACLE_PAIRS = 2
ORACLE_LEN = 4
ORACLE_RESOLUTION = 3
# weak-lb value bank: interval curve pairs of 3 to 5 vertices in total, each
# with its minimum weak value.  The seed maps every pair through its own
# affine map x -> a*x + b, which scales the value by |a| and leaves the
# candidate and DP structure (so the work) unchanged.
WEAK_BANK = (
    ((("1", "2"),), (("-2", "-3/2"), ("-2", "-1/2")), "5/2"),
    ((("-3/2", "2"), ("-2", "-1/2")), (("3/2", "2"),), "2"),
    ((("1/2", "1"), ("3/2", "3/2")), (("0", "1/2"),), "1"),
    ((("1/2", "3/2"), ("0", "3/2")), (("-3/2", "-3/2"), ("1", "2")), "2"),
    ((("-3/2", "3/2"), ("-2", "0")), (("0", "3/2"), ("1/2", "1")), "1/2"),
    ((("-1", "0"),), (("-1/2", "1"), ("1", "3/2"), ("-3/2", "-1")), "1"),
    ((("-2", "1"), ("-3/2", "-1/2"), ("-1/2", "3/2")), (("-3/2", "-1"),), "1/2"),
    ((("-1/2", "1"), ("-1/2", "-1/2")), (("3/2", "2"), ("-2", "1/2"), ("-2", "0")), "1/2"),
    ((("-1", "1/2"), ("2", "2"), ("-2", "-1")), (("-2", "-3/2"), ("-1", "2")), "3/2"),
    ((("-3/2", "-1"), ("-3/2", "1/2")), (("0", "3/2"), ("-1", "2"), ("-2", "-1/2")), "1"),
)

# Odd primes for the prime-denominator family: the scale factor is the lcm
# of every denominator, here up to their product (about 64 bits).
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass
class Op:
    """One `lbf` invocation and what its answer check needs."""

    kind: str
    argv: list
    cells: int
    check: dict = field(default_factory=dict)


def fmt(x: F) -> str:
    return str(F(x))


def _num(rng: random.Random, lo: F, hi: F, den: int) -> F:
    """Uniform rational in [lo, hi] with denominator den, doubled until
    the range holds one."""
    while math.ceil(lo * den) > math.floor(hi * den):
        den *= 2
    return F(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def _interval_curve(spans) -> UncertainCurve:
    return UncertainCurve(tuple(make_interval(F(lo), F(hi)) for lo, hi in spans))


def planted_pair(rng: random.Random, n: int, delta: F, den) -> tuple:
    """A pair with a planted realisation pair within delta in lockstep.

    x_i is a walk reflected into [-3 delta, 3 delta], y_i = x_i + e_i with
    |e_i| <= delta, and vertex i of u (of v) contains x_i (y_i), widened by
    zero up to three times delta on each side.  Matching vertex i with
    vertex i keeps the realisations x, y within max|e_i| <= delta, so the
    decision at delta is feasible.  den() draws each value's denominator.
    """
    widths = (F(0), delta / 4, delta, 3 * delta)
    x = F(0)
    u_spans, v_spans = [], []
    for _ in range(n):
        # staying in a narrow range keeps the curves crossing, so most
        # cells of the free space are nonempty
        x += _num(rng, -delta, delta, den())
        if abs(x) > 3 * delta:
            x = (6 * delta - abs(x)) * (1 if x > 0 else -1)
        y = x + _num(rng, -delta, delta, den())
        for centre, out in ((x, u_spans), (y, v_spans)):
            lo = centre - _num(rng, F(0), rng.choice(widths), den())
            hi = centre + _num(rng, F(0), rng.choice(widths), den())
            out.append((lo, hi))
    return _interval_curve(u_spans), _interval_curve(v_spans)


def alternating_pair(n: int, scale: F, shift: F, offset: F = F(0)) -> tuple:
    """The acceptance suite's criterion-5 family, mapped by x -> scale*x +
    shift: u alternates [0,1],[1,2] and v alternates [1,2],[0,1].  With v
    moved up by offset >= 0 the lower-bound value is exactly
    scale*offset: the first vertices are that far apart, and u at 1, v at
    1 + offset everywhere attains it."""
    def seq(first):
        out = []
        for i in range(n):
            lo = F(0) if (i % 2 == 0) == first else F(1)
            out.append((lo, lo + 1))
        return out

    u = [(scale * lo + shift, scale * hi + shift) for lo, hi in seq(True)]
    v = [(scale * (lo + offset) + shift, scale * (hi + offset) + shift) for lo, hi in seq(False)]
    return _interval_curve(u), _interval_curve(v)


def with_spike(rng: random.Random, u: UncertainCurve, v: UncertainCurve, k: int, delta: F, den) -> UncertainCurve:
    """u with vertex k replaced by a precise point more than delta beyond
    everything v can reach.  Any matching pairs that point with some point
    of v's image, so no realisation pair is within delta: the decision is
    infeasible, and the sweep only dies at row k."""
    vlo, vhi = v.span()
    gap = delta + _num(rng, delta / 8, delta, den())
    x = vhi + gap if rng.random() < 0.5 else vlo - gap
    pts = list(u.points)
    pts[k] = Precise(x)
    return UncertainCurve(tuple(pts))


def relabel(rng: random.Random, f: CnfFormula) -> CnfFormula:
    """Permute variables and flip polarities: same size, same satisfiability."""
    perm = list(range(1, f.num_vars + 1))
    rng.shuffle(perm)
    flip = [rng.random() < 0.5 for _ in perm]
    clauses = tuple(
        tuple((-1 if flip[abs(l) - 1] else 1) * (1 if l > 0 else -1) * perm[abs(l) - 1] for l in cl)
        for cl in f.clauses
    )
    return CnfFormula(f.num_vars, clauses)


def dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    lines += [" ".join(str(l) for l in cl) + " 0" for cl in f.clauses]
    return "\n".join(lines) + "\n"


class _Writer:
    def __init__(self, outdir: str):
        self.outdir = outdir
        self.count = 0
        os.makedirs(outdir, exist_ok=True)

    def curve(self, c: UncertainCurve) -> str:
        path = os.path.join(self.outdir, f"c{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(curve_to_json(c), fh)
        return path

    def cnf(self, f: CnfFormula) -> str:
        path = os.path.join(self.outdir, f"f{self.count:04d}.cnf")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dimacs(f))
        return path


def _dens(rng: random.Random, family: str):
    if family == "prime":
        return lambda: rng.choice(PRIMES)
    return lambda: rng.choice((1, 2, 4))


def family_pair(rng: random.Random, family: str, n: int, offset: F = F(0)) -> tuple:
    """(u, v, delta, den) from one family, feasible at delta: "alt" is the
    alternating family moved apart by offset (value scale*offset), "rand"
    and "prime" are planted pairs with small or prime denominators."""
    den = _dens(rng, family)
    if family == "alt":
        scale = _num(rng, F(1, 2), F(2), 4)
        u, v = alternating_pair(n, scale, _num(rng, F(-4), F(4), 4), offset)
        return u, v, scale * (offset + _num(rng, F(1, 4), F(3), 4)), den
    delta = _num(rng, F(1, 2), F(2), den())
    u, v = planted_pair(rng, n, delta, den)
    return u, v, delta, den


def _lb_decide(rng: random.Random, w: _Writer) -> list:
    ops = []
    n = DECIDE_N
    half = DECIDE_PER_FAMILY // 2
    for family in FAMILIES:
        for t in range(DECIDE_PER_FAMILY):
            u, v, delta, den = family_pair(rng, family, n)
            feasible = t % 2 == 0
            if not feasible:
                # stratified over the middle half of the rows so every seed
                # spreads the dying rows the same way
                k = int(n * (0.25 + 0.5 * (t // 2 + rng.random()) / half))
                u = with_spike(rng, u, v, k, delta, den)
            ops.append(Op(
                "decide",
                ["decide", "--delta", fmt(delta), w.curve(u), w.curve(v)],
                n * n,
                {"expected": feasible},
            ))
    return ops


def _lb_witness_value(rng: random.Random, w: _Writer) -> list:
    ops = []
    for family in FAMILIES * PER_FAMILY:
        u, v, delta, _ = family_pair(rng, family, WITNESS_N, _num(rng, F(0), F(1), 4))
        ops.append(Op(
            "witness",
            ["decide", "--witness", "--delta", fmt(delta), w.curve(u), w.curve(v)],
            WITNESS_N ** 2,
            {"u": u, "v": v, "delta": delta},
        ))
    for family in FAMILIES * PER_FAMILY:
        u, v, _, _ = family_pair(rng, family, VALUE_N, _num(rng, F(1, 4), F(1), 4))
        ops.append(Op(
            "value",
            ["value", "--tol", fmt(VALUE_TOL), w.curve(u), w.curve(v)],
            VALUE_N ** 2,
            {"u": u, "v": v, "tol": VALUE_TOL},
        ))
    return ops


def _small_pair(rng: random.Random) -> tuple:
    """Criterion-4-sized pair: integer vertices in [-2, 2], two of them
    widened to intervals, so every pair enumerates the same count."""
    out = []
    for _ in range(2):
        wide = set(rng.sample(range(ORACLE_LEN), 2))
        spans = []
        for idx in range(ORACLE_LEN):
            if idx in wide:
                a = rng.randint(-2, 1)
                spans.append((a, rng.randint(a + 1, 2)))
            else:
                x = rng.randint(-2, 2)
                spans.append((x, x))
        out.append(_interval_curve(spans))
    return tuple(out)


def _affine(rng: random.Random) -> tuple:
    a = F(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((1, -1))
    b = F(rng.randint(-30, 30), rng.randint(1, 6))
    return a, b


def _mapped(spans, a: F, b: F) -> UncertainCurve:
    out = []
    for lo, hi in spans:
        x, y = a * F(lo) + b, a * F(hi) + b
        out.append((min(x, y), max(x, y)))
    return _interval_curve(out)


def _exhaustive(rng: random.Random, w: _Writer) -> list:
    ops = []
    path = w.cnf(UB_FORMULA)
    for model in ("indecisive", "imprecise"):
        ops.append(Op("verify-ub", ["verify", path, "--kind", "ub", "--model", model], 0,
                      {"formula": UB_FORMULA, "model": model}))
    for model, formulas in WEAK_FORMULAS.items():
        for f in formulas:
            g = relabel(rng, f)
            ops.append(Op("verify-weak", ["verify", w.cnf(g), "--kind", "weak", "--model", model], 0,
                          {"formula": g, "model": model}))
    for _ in range(ORACLE_PAIRS):
        u, v = _small_pair(rng)
        pu, pv = w.curve(u), w.curve(v)
        for variant in ORACLE_VARIANTS:
            for side in ("lower", "upper"):
                base = ["oracle", "--variant", variant, "--side", side,
                        "--resolution", str(ORACLE_RESOLUTION)]
                stop = _num(rng, F(1, 2), F(2), 4) if side == "lower" else _num(rng, F(1), F(3), 4)
                for stop_at in (None, stop):
                    argv = base + (["--stop-at", fmt(stop_at)] if stop_at is not None else [])
                    ops.append(Op("oracle", argv + [pu, pv], ORACLE_LEN * ORACLE_LEN,
                                  {"u": u, "v": v, "variant": variant, "side": side,
                                   "stop_at": stop_at, "resolution": ORACLE_RESOLUTION}))
    for su, sv, value in WEAK_BANK:
        a, b = _affine(rng)
        u, v = _mapped(su, a, b), _mapped(sv, a, b)
        ops.append(Op("weak-min", ["weak-lb", "value", w.curve(u), w.curve(v)], len(u) * len(v),
                      {"u": u, "v": v, "expected": abs(a) * F(value)}))
    return ops


_BUILDERS = {
    "lb-decide": _lb_decide,
    "lb-witness-value": _lb_witness_value,
    "exhaustive": _exhaustive,
}


def build(workload: str, seed: int, outdir: str) -> list:
    """Write the workload's input files for this seed into outdir and
    return its operations, in the order one pass runs them."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, _Writer(outdir))
